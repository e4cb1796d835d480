//! Document-store error type.

use polyframe_storage::DurableError;
use std::fmt;

/// Errors produced by the document store.
#[derive(Debug, Clone, PartialEq)]
pub enum DocError {
    /// Malformed pipeline JSON or unsupported stage/operator.
    Pipeline(String),
    /// Unknown collection.
    UnknownCollection(String),
    /// Runtime evaluation failure.
    Exec(String),
    /// `$lookup` against a sharded collection (paper: expression 12 cannot
    /// run on distributed MongoDB).
    ShardedLookup(String),
    /// A transient (retryable) backend condition: a dropped connection,
    /// a shard timeout, or an injected fault. Retrying may succeed.
    Transient(String),
    /// The store's write-ahead log or snapshot failed its integrity
    /// check. Non-retryable: the durable state itself is damaged.
    Corruption(String),
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            DocError::UnknownCollection(c) => write!(f, "unknown collection: {c}"),
            DocError::Exec(m) => write!(f, "execution error: {m}"),
            DocError::ShardedLookup(c) => {
                write!(f, "$lookup from sharded collection {c} is not allowed")
            }
            DocError::Transient(m) => write!(f, "{m}"),
            DocError::Corruption(m) => write!(f, "log corruption: {m}"),
        }
    }
}

impl std::error::Error for DocError {}

impl From<DurableError> for DocError {
    fn from(e: DurableError) -> DocError {
        match e {
            DurableError::Transient(m) => DocError::Transient(m),
            DurableError::Corruption(m) => DocError::Corruption(m),
            DurableError::NotDurable => DocError::Exec(e.to_string()),
        }
    }
}

impl DocError {
    /// Whether retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, DocError::Transient(_))
    }

    /// Whether this error reports damaged durable state.
    pub fn is_corruption(&self) -> bool {
        matches!(self, DocError::Corruption(_))
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, DocError>;
