//! Pluggable execution backends: where task attempts actually run.
//!
//! The runner plans *when and on which virtual node* each attempt runs
//! (simulated time); an [`ExecBackend`] decides *in which process* the
//! attempt's body executes. The body itself is written once:
//! `map_body` and `reduce_body` are the only callers of
//! [`Mapper::map`] and [`Reducer::reduce`]. Under `InProcess` the
//! runner calls them typed, on the calling rayon thread;
//! [`tcp::TcpWorkers`] ships a serialized [`TaskDescriptor`] to a pool of
//! real worker processes over TCP, where the family's registered entry
//! point calls the same body between decoding its arguments and encoding
//! its result, and proxies the task's DFS traffic back to the driver. The
//! body accounts bytes the same way in either process — shuffled pairs by
//! their [`crate::job::ShuffleSize`] — so a descriptor carries no sizing
//! hint and a worker's [`TaskStats`] equal the driver's.
//!
//! Remote execution cannot ship closures, so jobs opt in by naming a
//! *task family* ([`crate::job::JobSpec::remote`]) registered in a
//! [`TaskRegistry`]. Registration captures, per family, monomorphized
//! codec functions (`JobCodec`): driver-side encoders that turn the
//! typed mapper/reducer + task input into a [`serde::Value`] payload and
//! decoders for the results; worker-side entry points that reconstruct
//! the typed objects around the body. The registry holds families of
//! different types side by side, so this codec table is the one place a
//! payload is type-erased. A job whose family is absent from the registry
//! (or that never calls `remote`) runs in the driver under any backend.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use serde::{de_field, Deserialize, Serialize, Value};

use crate::dfs::DfsAccess;
use crate::error::{MrError, Result};
use crate::fault::Phase;
use crate::job::{MapContext, Mapper, ReduceContext, Reducer, TaskStats};
use crate::shuffle::ReducerInput;

pub(crate) mod tcp;

/// Type-erased result of a registered decoder; [`decode_as`] downcasts it
/// back to the wave's concrete payload type.
pub(crate) type ErasedPayload = Box<dyn Any + Send>;

/// Everything a worker process needs to run one task attempt. Serialized
/// with bincode and shipped over the wire by remote backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDescriptor {
    /// Job name (diagnostics and error attribution).
    pub job: String,
    /// Registered task family resolving the map/reduce functions.
    pub family: String,
    /// Which body to run: the family's mapper or its reducer.
    pub phase: Phase,
    /// Task index within the wave (map task index or reduce partition).
    pub task_index: usize,
    /// Number of tasks in the wave (map count or reducer count).
    pub num_tasks: usize,
    /// Family-specific payload: the serialized mapper + input split, or
    /// the serialized reducer + sorted partition.
    pub payload: Value,
}

/// A completed remote attempt: measured stats plus the family-specific
/// result payload (map pairs or reduce outputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireTaskResult {
    /// Measured work of the attempt, accounted on the worker.
    pub stats: TaskStats,
    /// Family-specific result tree, decoded by the driver-side codec.
    pub payload: Value,
}

/// Worker-side runner for one phase of a registered family.
pub(crate) type RunTaskFn = fn(&TaskDescriptor, Arc<dyn DfsAccess>) -> Result<WireTaskResult>;

/// Driver-side type-erased payload encoder (mapper + split, or reducer +
/// partition).
pub(crate) type EncodeTaskFn = fn(&dyn Any, &dyn Any) -> Result<Value>;

/// Where task-attempt bodies execute. Owned by
/// [`crate::cluster::Cluster`]. A backend decides one thing: whether it
/// has workers to ship a [`TaskDescriptor`] to. Attempts it does not ship
/// (every attempt under `InProcess`; jobs without a registered family
/// under any backend) run in the driver through the same body. Simulated
/// node deaths never reach a backend: the scheduler models them alone.
pub trait ExecBackend: Send + Sync + std::fmt::Debug {
    /// Stable backend label (the `backend` dimension of
    /// [`crate::obs::Labels`]).
    fn name(&self) -> &str;

    /// True when the backend has workers to [`ExecBackend::execute`] on;
    /// the runner builds descriptors only for backends that do.
    fn wants_descriptors(&self) -> bool {
        false
    }

    /// Runs one task attempt on a worker and returns what the worker sent
    /// back. Called only when [`ExecBackend::wants_descriptors`] is true.
    ///
    /// Body-level failures come back as the body's [`MrError`] (the
    /// runner wraps and retries them); a dead worker comes back as
    /// [`MrError::WorkerLost`] (retried at once on another worker).
    fn execute(&self, desc: &TaskDescriptor) -> Result<WireTaskResult> {
        Err(MrError::InvalidJob(format!(
            "backend {:?} has no workers to run task {} of job {:?} on",
            self.name(),
            desc.task_index,
            desc.job
        )))
    }

    /// Gracefully stops any worker processes. Idempotent.
    fn shutdown(&self) {}
}

/// The default backend: no workers, so every attempt runs on the calling
/// rayon thread.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InProcess;

impl ExecBackend for InProcess {
    fn name(&self) -> &str {
        "in-process"
    }
}

/// Monomorphized codec hooks for one registered task family. Driver-side
/// encoders/decoders operate on type-erased mapper/reducer references;
/// worker-side runners rebuild the typed objects from the wire and run
/// the real bodies.
pub(crate) struct JobCodec {
    /// Driver: `(&M, &M::Input) -> payload` (arguments type-erased).
    pub(crate) encode_map: EncodeTaskFn,
    /// Driver: map result payload -> erased `(pairs, local)`.
    pub(crate) decode_map: fn(&Value) -> Result<ErasedPayload>,
    /// Worker: run the family's mapper for a descriptor.
    pub(crate) run_map: RunTaskFn,
    /// Driver: `(&R, &ReducerInput<K, V>) -> payload`; `None` for
    /// map-only families.
    pub(crate) encode_reduce: Option<EncodeTaskFn>,
    /// Driver: reduce result payload -> erased `outputs`.
    pub(crate) decode_reduce: Option<fn(&Value) -> Result<ErasedPayload>>,
    /// Worker: run the family's reducer for a descriptor.
    pub(crate) run_reduce: Option<RunTaskFn>,
}

impl JobCodec {
    /// Worker-side dispatch on the descriptor's phase.
    pub(crate) fn run(
        &self,
        desc: &TaskDescriptor,
        dfs: Arc<dyn DfsAccess>,
    ) -> Result<WireTaskResult> {
        match desc.phase {
            Phase::Map => (self.run_map)(desc, dfs),
            Phase::Reduce => {
                let run = self.run_reduce.ok_or_else(|| {
                    MrError::InvalidJob(format!(
                        "family {:?} is map-only but received a reduce task",
                        desc.family
                    ))
                })?;
                run(desc, dfs)
            }
        }
    }
}

/// Named task families available for remote execution. The driver and
/// every worker process build the *same* registry (same names, same
/// types); a descriptor's `family` field is the cross-process function
/// pointer.
#[derive(Default)]
pub struct TaskRegistry {
    families: BTreeMap<String, JobCodec>,
}

impl std::fmt::Debug for TaskRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRegistry")
            .field("families", &self.families.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl TaskRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TaskRegistry::default()
    }

    /// Registers a map+reduce family under `name`. All shuffled and
    /// serialized types must round-trip serde.
    pub fn register<M, R>(&mut self, name: impl Into<String>)
    where
        M: Mapper + Serialize + Deserialize,
        M::Input: Serialize + Deserialize,
        M::Key: Serialize + Deserialize,
        M::Value: Serialize + Deserialize,
        R: Reducer<Key = M::Key, Value = M::Value> + Serialize + Deserialize,
        R::Output: Serialize + Deserialize,
    {
        self.families.insert(
            name.into(),
            JobCodec {
                encode_map: encode_map_task::<M>,
                decode_map: decode_map_result::<M>,
                run_map: run_map_task::<M>,
                encode_reduce: Some(encode_reduce_task::<R>),
                decode_reduce: Some(decode_reduce_result::<R>),
                run_reduce: Some(run_reduce_task::<R>),
            },
        );
    }

    /// Registers a map-only family under `name` (reduce descriptors for
    /// it are rejected).
    pub fn register_map_only<M>(&mut self, name: impl Into<String>)
    where
        M: Mapper + Serialize + Deserialize,
        M::Input: Serialize + Deserialize,
        M::Key: Serialize + Deserialize,
        M::Value: Serialize + Deserialize,
    {
        self.families.insert(
            name.into(),
            JobCodec {
                encode_map: encode_map_task::<M>,
                decode_map: decode_map_result::<M>,
                run_map: run_map_task::<M>,
                encode_reduce: None,
                decode_reduce: None,
                run_reduce: None,
            },
        );
    }

    /// Looks up a family's codec.
    pub(crate) fn get(&self, family: &str) -> Option<&JobCodec> {
        self.families.get(family)
    }

    /// Registered family names, sorted.
    pub fn families(&self) -> Vec<&str> {
        self.families.keys().map(String::as_str).collect()
    }
}

/// The raw (pre-partition) result of a map body: emitted pairs and the
/// per-node tally of its reads' replica homes ([`crate::job::TaskIo`]).
/// The runner partitions the pairs driver-side, whichever process ran the
/// body.
pub(crate) type RawMapPayload<K, V> = (Vec<(K, V)>, Vec<u64>);

/// The result of a reduce body: per-key outputs.
pub(crate) type RawReducePayload<K, O> = Vec<(K, O)>;

/// One map attempt: the only caller of [`Mapper::map`]. The measured CPU
/// is the wall time of the `map` call alone.
#[allow(clippy::type_complexity)]
pub(crate) fn map_body<M: Mapper>(
    mapper: &M,
    input: &M::Input,
    dfs: Arc<dyn DfsAccess>,
    task_index: usize,
    num_tasks: usize,
) -> Result<(RawMapPayload<M::Key, M::Value>, TaskStats)> {
    let mut ctx = MapContext::new(dfs, task_index, num_tasks);
    let start = Instant::now();
    mapper.map(input, &mut ctx)?;
    let (stats, local) = ctx.io.finish(start.elapsed());
    Ok(((ctx.emitted, local), stats))
}

/// One reduce attempt over a sorted partition: the only caller of
/// [`Reducer::reduce`]. Each group's values are a contiguous slice
/// borrowed from the sorted run — nothing is cloned on the way in.
#[allow(clippy::type_complexity)]
pub(crate) fn reduce_body<R: Reducer>(
    reducer: &R,
    input: &ReducerInput<R::Key, R::Value>,
    dfs: Arc<dyn DfsAccess>,
) -> Result<(RawReducePayload<R::Key, R::Output>, TaskStats)> {
    let mut ctx = ReduceContext::new(dfs);
    let start = Instant::now();
    let mut outputs = Vec::new();
    for (key, values) in input.groups() {
        let out = reducer.reduce(key, values, &mut ctx)?;
        outputs.push((key.clone(), out));
    }
    let (stats, _) = ctx.io.finish(start.elapsed());
    Ok((outputs, stats))
}

/// Decodes a worker's result payload with a family's registered decoder
/// and downcasts it to the payload type `T` the wave expects.
pub(crate) fn decode_as<T: 'static>(
    decode: fn(&Value) -> Result<ErasedPayload>,
    payload: &Value,
) -> Result<T> {
    match decode(payload)?.downcast::<T>() {
        Ok(typed) => Ok(*typed),
        Err(_) => Err(downcast_err("result")),
    }
}

fn de_err(context: &str, e: serde::DeError) -> MrError {
    MrError::Other(format!("{context}: {e}"))
}

fn downcast_err(what: &str) -> MrError {
    MrError::InvalidJob(format!(
        "registered family's {what} type does not match the job's (wrong family name in JobSpec::remote?)"
    ))
}

fn encode_map_task<M>(mapper: &dyn Any, input: &dyn Any) -> Result<Value>
where
    M: Mapper + Serialize,
    M::Input: Serialize,
{
    let mapper = mapper
        .downcast_ref::<M>()
        .ok_or_else(|| downcast_err("mapper"))?;
    let input = input
        .downcast_ref::<M::Input>()
        .ok_or_else(|| downcast_err("map input"))?;
    Ok(Value::Object(vec![
        ("mapper".to_string(), mapper.to_value()),
        ("input".to_string(), input.to_value()),
    ]))
}

fn decode_map_result<M>(v: &Value) -> Result<ErasedPayload>
where
    M: Mapper,
    M::Key: Deserialize,
    M::Value: Deserialize,
{
    let pairs: Vec<(M::Key, M::Value)> =
        de_field(v, "pairs").map_err(|e| de_err("map result pairs", e))?;
    let local: Vec<u64> = de_field(v, "local").map_err(|e| de_err("map result tally", e))?;
    let payload: RawMapPayload<M::Key, M::Value> = (pairs, local);
    Ok(Box::new(payload))
}

fn run_map_task<M>(desc: &TaskDescriptor, dfs: Arc<dyn DfsAccess>) -> Result<WireTaskResult>
where
    M: Mapper + Deserialize,
    M::Input: Deserialize,
    M::Key: Serialize,
    M::Value: Serialize,
{
    let mapper =
        M::from_value(de_ref(&desc.payload, "mapper")?).map_err(|e| de_err("mapper", e))?;
    let input = M::Input::from_value(de_ref(&desc.payload, "input")?)
        .map_err(|e| de_err("map input", e))?;
    let ((pairs, local), stats) = map_body(&mapper, &input, dfs, desc.task_index, desc.num_tasks)?;
    Ok(WireTaskResult {
        stats,
        payload: Value::Object(vec![
            ("pairs".to_string(), pairs.to_value()),
            ("local".to_string(), local.to_value()),
        ]),
    })
}

fn encode_reduce_task<R>(reducer: &dyn Any, input: &dyn Any) -> Result<Value>
where
    R: Reducer + Serialize,
    R::Key: Serialize,
    R::Value: Serialize,
{
    let reducer = reducer
        .downcast_ref::<R>()
        .ok_or_else(|| downcast_err("reducer"))?;
    let input = input
        .downcast_ref::<ReducerInput<R::Key, R::Value>>()
        .ok_or_else(|| downcast_err("reduce input"))?;
    // The partition ships as already-sorted parallel arrays; the worker
    // rebuilds it without re-sorting (preserving the shuffle's stable
    // cross-task tie order exactly).
    Ok(Value::Object(vec![
        ("reducer".to_string(), reducer.to_value()),
        ("keys".to_string(), input.keys().to_value()),
        ("values".to_string(), input.values().to_value()),
    ]))
}

fn decode_reduce_result<R>(v: &Value) -> Result<ErasedPayload>
where
    R: Reducer,
    R::Key: Deserialize,
    R::Output: Deserialize,
{
    let outputs: RawReducePayload<R::Key, R::Output> =
        de_field(v, "outputs").map_err(|e| de_err("reduce result outputs", e))?;
    Ok(Box::new(outputs))
}

fn run_reduce_task<R>(desc: &TaskDescriptor, dfs: Arc<dyn DfsAccess>) -> Result<WireTaskResult>
where
    R: Reducer + Deserialize,
    R::Key: Deserialize + Serialize,
    R::Value: Deserialize,
    R::Output: Serialize,
{
    let reducer =
        R::from_value(de_ref(&desc.payload, "reducer")?).map_err(|e| de_err("reducer", e))?;
    let keys: Vec<R::Key> = de_field(&desc.payload, "keys").map_err(|e| de_err("keys", e))?;
    let values: Vec<R::Value> =
        de_field(&desc.payload, "values").map_err(|e| de_err("values", e))?;
    let input = ReducerInput::from_sorted_parts(keys, values);
    let (outputs, stats) = reduce_body(&reducer, &input, dfs)?;
    Ok(WireTaskResult {
        stats,
        payload: Value::Object(vec![("outputs".to_string(), outputs.to_value())]),
    })
}

fn de_ref<'v>(payload: &'v Value, key: &str) -> Result<&'v Value> {
    payload
        .get(key)
        .ok_or_else(|| MrError::Other(format!("task payload missing field {key:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::Dfs;
    use crate::error::Result;
    use bytes::Bytes;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct DoubleMapper {
        factor: u64,
    }

    impl Mapper for DoubleMapper {
        type Input = usize;
        type Key = usize;
        type Value = u64;

        fn map(&self, input: &usize, ctx: &mut MapContext<usize, u64>) -> Result<()> {
            let data = ctx.read(&format!("in/{input}"))?;
            ctx.emit(*input, self.factor * data.len() as u64);
            ctx.write(&format!("out/{input}"), Bytes::from(vec![0u8; 4]));
            Ok(())
        }
    }

    // Braced (not unit) struct: the vendored serde derive only handles
    // braced bodies.
    #[derive(Debug, Serialize, Deserialize)]
    struct SumReducer {}

    impl Reducer for SumReducer {
        type Key = usize;
        type Value = u64;
        type Output = u64;

        fn reduce(&self, _key: &usize, values: &[u64], _: &mut ReduceContext) -> Result<u64> {
            Ok(values.iter().sum())
        }
    }

    fn registry() -> TaskRegistry {
        let mut r = TaskRegistry::new();
        r.register::<DoubleMapper, SumReducer>("double-sum");
        r
    }

    #[test]
    fn descriptor_round_trips_through_bincode() {
        let desc = TaskDescriptor {
            job: "j".into(),
            family: "double-sum".into(),
            phase: Phase::Map,
            task_index: 3,
            num_tasks: 8,
            payload: Value::Object(vec![("x".into(), Value::Number(serde::Number::F(1.5)))]),
        };
        let bytes = bincode::serialize(&desc);
        let back: TaskDescriptor = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back, desc);
    }

    #[test]
    fn map_codec_runs_remotely_shaped_round_trip() {
        let reg = registry();
        let codec = reg.get("double-sum").unwrap();
        let dfs = Arc::new(Dfs::default());
        dfs.write("in/2", Bytes::from(vec![1u8; 10]));

        let mapper = DoubleMapper { factor: 3 };
        let input = 2usize;
        let payload = (codec.encode_map)(&mapper, &input).unwrap();
        let desc = TaskDescriptor {
            job: "j".into(),
            family: "double-sum".into(),
            phase: Phase::Map,
            task_index: 2,
            num_tasks: 4,
            payload,
        };
        // Simulate the wire: bincode both directions.
        let desc: TaskDescriptor = bincode::deserialize(&bincode::serialize(&desc)).unwrap();
        let result = codec.run(&desc, dfs.clone()).unwrap();
        let result: WireTaskResult = bincode::deserialize(&bincode::serialize(&result)).unwrap();
        assert_eq!(result.stats.read_bytes, 10);
        assert_eq!(result.stats.write_bytes, 4);
        assert_eq!(result.stats.shuffle_bytes, 16, "one (usize, u64) pair");
        assert!(dfs.exists("out/2"), "side write landed on the driver DFS");

        let (pairs, local) =
            decode_as::<RawMapPayload<usize, u64>>(codec.decode_map, &result.payload)
                .expect("decoder produces the registered payload type");
        assert_eq!(pairs, vec![(2, 30)]);
        assert_eq!(local, vec![10; 3], "the input's three homes");
    }

    #[test]
    fn reduce_codec_preserves_sorted_order() {
        let reg = registry();
        let codec = reg.get("double-sum").unwrap();
        let dfs: Arc<Dfs> = Arc::new(Dfs::default());

        let reducer = SumReducer {};
        let input: ReducerInput<usize, u64> =
            ReducerInput::from_pairs(vec![(1, 10), (0, 1), (1, 5)]);
        let payload = (codec.encode_reduce.unwrap())(&reducer, &input).unwrap();
        let desc = TaskDescriptor {
            job: "j".into(),
            family: "double-sum".into(),
            phase: Phase::Reduce,
            task_index: 0,
            num_tasks: 1,
            payload,
        };
        let result = codec.run(&desc, dfs).unwrap();
        let decode = codec.decode_reduce.unwrap();
        let outputs = decode_as::<RawReducePayload<usize, u64>>(decode, &result.payload)
            .expect("decoder produces the registered payload type");
        assert_eq!(outputs, vec![(0, 1), (1, 15)]);
    }

    #[test]
    fn wrong_family_types_are_rejected_not_garbled() {
        let reg = registry();
        let codec = reg.get("double-sum").unwrap();
        let wrong_mapper = SumReducer {}; // any non-DoubleMapper type
        let input = 0usize;
        assert!(matches!(
            (codec.encode_map)(&wrong_mapper, &input),
            Err(MrError::InvalidJob(_))
        ));
    }

    #[test]
    fn map_only_family_rejects_reduce_tasks() {
        let mut reg = TaskRegistry::new();
        reg.register_map_only::<DoubleMapper>("double");
        let codec = reg.get("double").unwrap();
        let desc = TaskDescriptor {
            job: "j".into(),
            family: "double".into(),
            phase: Phase::Reduce,
            task_index: 0,
            num_tasks: 1,
            payload: Value::Null,
        };
        let dfs: Arc<Dfs> = Arc::new(Dfs::default());
        assert!(matches!(codec.run(&desc, dfs), Err(MrError::InvalidJob(_))));
        assert_eq!(reg.families(), vec!["double"]);
    }
}
