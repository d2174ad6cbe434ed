//! Error and violation types for the MPC simulator.

use std::fmt;

/// Result alias used by fallible simulator operations.
pub type MpcResult<T> = Result<T, MpcError>;

/// Kinds of model violations the simulator can detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A machine's local memory exceeded its `Θ(n^δ)` capacity.
    LocalMemory,
    /// A machine sent more words in one round than the per-round budget.
    SendBandwidth,
    /// A machine received more words in one round than the per-round budget.
    ReceiveBandwidth,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::LocalMemory => write!(f, "local memory cap exceeded"),
            ViolationKind::SendBandwidth => write!(f, "per-round send budget exceeded"),
            ViolationKind::ReceiveBandwidth => write!(f, "per-round receive budget exceeded"),
        }
    }
}

/// A single recorded violation of the MPC model constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What was violated.
    pub kind: ViolationKind,
    /// The machine at fault.
    pub machine: usize,
    /// The round (1-based, as counted so far) in which it happened.
    pub round: u64,
    /// Observed number of words.
    pub observed: usize,
    /// The cap that was exceeded.
    pub limit: usize,
    /// The primitive or phase during which it happened.
    pub context: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on machine {} in round {} during `{}`: {} words > limit {}",
            self.kind, self.machine, self.round, self.context, self.observed, self.limit
        )
    }
}

/// Errors produced by the MPC simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum MpcError {
    /// A model constraint was violated while running in strict mode.
    Violation(Violation),
    /// An algorithm asked for an operation with inconsistent arguments
    /// (e.g. joining on duplicate keys where uniqueness was required).
    InvalidOperation(String),
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::Violation(v) => write!(f, "MPC model violation: {v}"),
            MpcError::InvalidOperation(msg) => write!(f, "invalid MPC operation: {msg}"),
        }
    }
}

impl std::error::Error for MpcError {}

/// Why [`MpcContext::try_converge`](crate::MpcContext::try_converge) stopped a
/// fixpoint loop before it drained. Both are contract breaches of the caller's
/// closures; the loop reports them instead of running (and allocating) forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvergeError {
    /// An `update` changed the key of a state. The retained index addresses states
    /// by key, so every later probe would read the wrong record.
    KeyMutated {
        /// The `what` label of the offending call.
        what: &'static str,
        /// The (0-based) charged step whose update re-keyed a state.
        step: u64,
    },
    /// Requests were still outstanding after `bound` charged steps. A doubling
    /// loop over `n` states settles within `⌈log₂ n⌉ + 1` of them.
    StepBound {
        /// The `what` label of the offending call.
        what: &'static str,
        /// The bound that was exhausted (`2⌈log₂ n⌉ + 8`).
        bound: u64,
    },
}

impl fmt::Display for ConvergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvergeError::KeyMutated { what, step } => write!(
                f,
                "converge states must keep their key stable across updates \
                 (`{what}`, step {step})"
            ),
            ConvergeError::StepBound { what, bound } => write!(
                f,
                "`{what}` still had requests outstanding after {bound} converge steps"
            ),
        }
    }
}

impl std::error::Error for ConvergeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_displays_context() {
        let v = Violation {
            kind: ViolationKind::LocalMemory,
            machine: 3,
            round: 7,
            observed: 100,
            limit: 64,
            context: "sort_by_key".to_string(),
        };
        let s = v.to_string();
        assert!(s.contains("machine 3"));
        assert!(s.contains("sort_by_key"));
        assert!(s.contains("100"));
    }

    #[test]
    fn error_displays() {
        let e = MpcError::InvalidOperation("bad".into());
        assert!(e.to_string().contains("bad"));
    }
}
