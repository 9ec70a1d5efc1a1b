//! Framework error type.

use std::fmt;

use serde::{de_field, DeError, Deserialize, Serialize, Value};

use crate::fault::Phase;

/// Result alias for framework operations.
pub type Result<T> = std::result::Result<T, MrError>;

/// Errors produced by the MapReduce framework.
#[derive(Debug, Clone, PartialEq)]
pub enum MrError {
    /// A DFS path was not found. Carries the normalized path plus the
    /// deepest ancestor directory that *does* exist, so a stale-path bug
    /// is diagnosable from the message alone: a wrong run directory shows
    /// `nearest_parent` close to the root, while a missing single output
    /// shows its intact parent.
    FileNotFound {
        /// The normalized path that was requested.
        path: String,
        /// Deepest existing ancestor directory (`/` when no component of
        /// the path exists).
        nearest_parent: String,
    },
    /// A file's data is unrecoverable: every node holding one of its
    /// replicas died (`crate::dfs::Dfs::kill_node`). Unlike
    /// [`MrError::FileNotFound`], the file *was* written — this is a
    /// failure-domain loss, not a missing path, and it is not retryable.
    AllReplicasLost {
        /// The normalized path whose block is gone.
        path: String,
        /// The (now all dead) home nodes the block was placed on.
        homes: Vec<usize>,
    },
    /// A task exhausted its retry budget.
    TaskFailed {
        /// Job name.
        job: String,
        /// Map or reduce phase.
        phase: Phase,
        /// Task index within the phase.
        task: usize,
        /// Number of attempts made.
        attempts: u32,
    },
    /// A user map/reduce function reported an error.
    UserTask {
        /// Job name.
        job: String,
        /// Map or reduce phase.
        phase: Phase,
        /// Task index within the phase.
        task: usize,
        /// Error message from the task body.
        message: String,
    },
    /// A remote worker process died (or its socket broke) while running a
    /// task attempt. Retryable: the runner steers the retry onto a
    /// different worker, like a lost tasktracker in Hadoop.
    WorkerLost {
        /// Worker id of the dead process.
        worker: usize,
        /// What broke (socket error, EOF, timeout).
        message: String,
    },
    /// Invalid job configuration.
    InvalidJob(String),
    /// Generic framework error.
    Other(String),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::FileNotFound {
                path,
                nearest_parent,
            } => {
                write!(
                    f,
                    "DFS file not found: {path} (nearest existing parent: {nearest_parent})"
                )
            }
            MrError::AllReplicasLost { path, homes } => {
                write!(
                    f,
                    "all replicas of {path} lost: home node(s) {homes:?} are dead"
                )
            }
            MrError::TaskFailed {
                job,
                phase,
                task,
                attempts,
            } => {
                write!(
                    f,
                    "{phase:?} task {task} of job {job:?} failed after {attempts} attempts"
                )
            }
            MrError::UserTask {
                job,
                phase,
                task,
                message,
            } => {
                write!(f, "{phase:?} task {task} of job {job:?} errored: {message}")
            }
            MrError::WorkerLost { worker, message } => {
                write!(f, "worker {worker} lost: {message}")
            }
            MrError::InvalidJob(msg) => write!(f, "invalid job: {msg}"),
            MrError::Other(msg) => write!(f, "mapreduce error: {msg}"),
        }
    }
}

impl std::error::Error for MrError {}

// Manual serde: `MrError` crosses the wire between worker processes and
// the driver (the derive macro does not handle data-carrying variants).
// Encoding is a tagged object: `{"kind": "...", ...fields}`.
impl Serialize for MrError {
    fn to_value(&self) -> Value {
        let tagged = |kind: &str, mut fields: Vec<(String, Value)>| {
            let mut all = vec![("kind".to_string(), Value::String(kind.to_string()))];
            all.append(&mut fields);
            Value::Object(all)
        };
        match self {
            MrError::FileNotFound {
                path,
                nearest_parent,
            } => tagged(
                "FileNotFound",
                vec![
                    ("path".into(), path.to_value()),
                    ("nearest_parent".into(), nearest_parent.to_value()),
                ],
            ),
            MrError::AllReplicasLost { path, homes } => tagged(
                "AllReplicasLost",
                vec![
                    ("path".into(), path.to_value()),
                    ("homes".into(), homes.to_value()),
                ],
            ),
            MrError::TaskFailed {
                job,
                phase,
                task,
                attempts,
            } => tagged(
                "TaskFailed",
                vec![
                    ("job".into(), job.to_value()),
                    ("phase".into(), phase.to_value()),
                    ("task".into(), task.to_value()),
                    ("attempts".into(), attempts.to_value()),
                ],
            ),
            MrError::UserTask {
                job,
                phase,
                task,
                message,
            } => tagged(
                "UserTask",
                vec![
                    ("job".into(), job.to_value()),
                    ("phase".into(), phase.to_value()),
                    ("task".into(), task.to_value()),
                    ("message".into(), message.to_value()),
                ],
            ),
            MrError::WorkerLost { worker, message } => tagged(
                "WorkerLost",
                vec![
                    ("worker".into(), worker.to_value()),
                    ("message".into(), message.to_value()),
                ],
            ),
            MrError::InvalidJob(msg) => {
                tagged("InvalidJob", vec![("message".into(), msg.to_value())])
            }
            MrError::Other(msg) => tagged("Other", vec![("message".into(), msg.to_value())]),
        }
    }
}

impl Deserialize for MrError {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let kind: String = de_field(v, "kind")?;
        match kind.as_str() {
            "FileNotFound" => Ok(MrError::FileNotFound {
                path: de_field(v, "path")?,
                nearest_parent: de_field(v, "nearest_parent")?,
            }),
            "AllReplicasLost" => Ok(MrError::AllReplicasLost {
                path: de_field(v, "path")?,
                homes: de_field(v, "homes")?,
            }),
            "TaskFailed" => Ok(MrError::TaskFailed {
                job: de_field(v, "job")?,
                phase: de_field(v, "phase")?,
                task: de_field(v, "task")?,
                attempts: de_field(v, "attempts")?,
            }),
            "UserTask" => Ok(MrError::UserTask {
                job: de_field(v, "job")?,
                phase: de_field(v, "phase")?,
                task: de_field(v, "task")?,
                message: de_field(v, "message")?,
            }),
            "WorkerLost" => Ok(MrError::WorkerLost {
                worker: de_field(v, "worker")?,
                message: de_field(v, "message")?,
            }),
            "InvalidJob" => Ok(MrError::InvalidJob(de_field(v, "message")?)),
            "Other" => Ok(MrError::Other(de_field(v, "message")?)),
            other => Err(DeError(format!("unknown MrError kind {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let nf = MrError::FileNotFound {
            path: "x/y/z.bin".into(),
            nearest_parent: "x".into(),
        };
        assert!(nf.to_string().contains("x/y/z.bin"));
        assert!(nf.to_string().contains("nearest existing parent: x"));
        let lost = MrError::AllReplicasLost {
            path: "run/L2/L.0".into(),
            homes: vec![1, 4],
        };
        assert!(lost.to_string().contains("run/L2/L.0"));
        assert!(lost.to_string().contains("[1, 4]"));
        let e = MrError::TaskFailed {
            job: "j".into(),
            phase: Phase::Map,
            task: 3,
            attempts: 4,
        };
        assert!(e.to_string().contains("task 3"));
        assert!(e.to_string().contains("4 attempts"));
        let e = MrError::UserTask {
            job: "j".into(),
            phase: Phase::Reduce,
            task: 0,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
        assert!(MrError::InvalidJob("no inputs".into())
            .to_string()
            .contains("no inputs"));
        assert!(MrError::Other("misc".into()).to_string().contains("misc"));
        let lost = MrError::WorkerLost {
            worker: 2,
            message: "socket closed".into(),
        };
        assert!(lost.to_string().contains("worker 2"));
        assert!(lost.to_string().contains("socket closed"));
    }

    #[test]
    fn serde_round_trips_every_variant() {
        let variants = vec![
            MrError::FileNotFound {
                path: "a/b".into(),
                nearest_parent: "a".into(),
            },
            MrError::AllReplicasLost {
                path: "run/x".into(),
                homes: vec![0, 3],
            },
            MrError::TaskFailed {
                job: "j".into(),
                phase: Phase::Map,
                task: 7,
                attempts: 4,
            },
            MrError::UserTask {
                job: "j".into(),
                phase: Phase::Reduce,
                task: 1,
                message: "boom".into(),
            },
            MrError::WorkerLost {
                worker: 3,
                message: "eof".into(),
            },
            MrError::InvalidJob("bad".into()),
            MrError::Other("misc".into()),
        ];
        for e in variants {
            let back = MrError::from_value(&e.to_value()).unwrap();
            assert_eq!(back, e);
        }
        assert!(MrError::from_value(&Value::Null).is_err());
    }
}
