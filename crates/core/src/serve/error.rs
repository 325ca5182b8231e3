//! Handles and typed errors for the serving layer: [`SessionId`],
//! [`ModelId`], and [`ServeError`] — every refusal is a recoverable value
//! scoped to one call, never a panic.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Opaque handle of one audio session on a
/// [`ShardedStreamServer`](crate::serve::ShardedStreamServer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) u64);

impl SessionId {
    /// Rebuilds a handle from its numeric form (crate-internal: the sharded
    /// front door assigns ids so that `id % shards` names the owning shard).
    pub(crate) fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The numeric form of this handle (crate-internal).
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// Opaque handle of one hosted model on a
/// [`ShardedStreamServer`](crate::serve::ShardedStreamServer): the index of
/// its [`ModelSpec`](crate::serve::ModelSpec) in the list the server was
/// built from. Sessions bind to one model for life via
/// [`ShardedStreamServer::try_open_model`](crate::serve::ShardedStreamServer::try_open_model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub(crate) u32);

impl ModelId {
    /// Reconstructs a handle from its wire form. Model handles cross
    /// process boundaries in multi-tenant deployments (a client names the
    /// model it wants in its open request); an id that does not name a
    /// registered model is answered with [`ServeError::UnknownModel`] by
    /// every server entry point, so forging one is safe.
    pub fn new(raw: u32) -> Self {
        ModelId(raw)
    }

    /// The wire form of this handle (inverse of [`Self::new`]).
    pub fn raw(&self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model#{}", self.0)
    }
}

/// Why a serving call was refused. Every variant is a recoverable value
/// that refuses one call; the rest of the server stays serviceable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The session was never opened, or has been closed.
    UnknownSession(SessionId),
    /// The feed buffer contains a non-finite sample (`NaN` or `±inf`) at
    /// `offset`. The call consumed nothing: no sample reached the session's
    /// stream, so the caller may clean the buffer and re-submit it whole.
    NonFiniteAudio {
        /// The session whose feed was refused.
        session: SessionId,
        /// Index of the first non-finite sample in the submitted buffer.
        offset: usize,
    },
    /// An open call was refused because the server is at its configured
    /// session limit.
    SessionLimit {
        /// The configured maximum number of concurrent sessions.
        limit: usize,
    },
    /// An open call named a model that was never registered on this server.
    UnknownModel(ModelId),
    /// The worker thread of the shard the call lands on has died (it
    /// panicked outside the per-batch fault isolation), taking that shard's
    /// sessions with it. Open a new session: it lands on the next shard.
    ShardUnavailable {
        /// The dead shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownSession(id) => write!(f, "{id} is unknown or closed"),
            Self::NonFiniteAudio { session, offset } => {
                write!(f, "{session}: non-finite sample at offset {offset} in feed buffer")
            }
            Self::SessionLimit { limit } => {
                write!(f, "session limit reached ({limit} concurrent sessions)")
            }
            Self::UnknownModel(id) => write!(f, "{id} is not registered on this server"),
            Self::ShardUnavailable { shard } => write!(f, "shard {shard} is down"),
        }
    }
}

impl std::error::Error for ServeError {}
