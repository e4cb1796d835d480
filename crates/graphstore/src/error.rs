//! Graph-store error type.

use polyframe_storage::DurableError;
use std::fmt;

/// Errors produced by the graph store.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Lexical/syntax error in a Cypher query.
    Syntax(String),
    /// Unknown label.
    UnknownLabel(String),
    /// Semantic error (unknown variable, bad aggregate placement, ...).
    Semantic(String),
    /// Runtime execution error.
    Exec(String),
    /// Property value not storable in a node record (nested structures).
    UnsupportedProperty(String),
    /// A transient (retryable) backend condition: a dropped connection,
    /// a shard timeout, or an injected fault. Retrying may succeed.
    Transient(String),
    /// The store's write-ahead log or snapshot failed its integrity
    /// check. Non-retryable: the durable state itself is damaged.
    Corruption(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Syntax(m) => write!(f, "cypher syntax error: {m}"),
            GraphError::UnknownLabel(l) => write!(f, "unknown label: {l}"),
            GraphError::Semantic(m) => write!(f, "semantic error: {m}"),
            GraphError::Exec(m) => write!(f, "execution error: {m}"),
            GraphError::UnsupportedProperty(m) => {
                write!(f, "unsupported property value: {m}")
            }
            GraphError::Transient(m) => write!(f, "{m}"),
            GraphError::Corruption(m) => write!(f, "log corruption: {m}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<DurableError> for GraphError {
    fn from(e: DurableError) -> GraphError {
        match e {
            DurableError::Transient(m) => GraphError::Transient(m),
            DurableError::Corruption(m) => GraphError::Corruption(m),
            DurableError::NotDurable => GraphError::Exec(e.to_string()),
        }
    }
}

impl GraphError {
    /// Whether retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, GraphError::Transient(_))
    }

    /// Whether this error reports damaged durable state.
    pub fn is_corruption(&self) -> bool {
        matches!(self, GraphError::Corruption(_))
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
