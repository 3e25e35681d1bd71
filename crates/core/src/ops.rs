//! Design-independent access traces.
//!
//! The IMDB engine compiles a query into one trace per core. A trace names
//! *what* is touched — records, fields, reads or writes, interleaved CPU
//! work — and the [`crate::system::System`] decides *how* under a given
//! design (regular line fills vs. stride bursts, layout addresses, ECC
//! traffic).

use std::sync::Arc;

/// One step of a core's trace.
///
/// A `Fields` op's field list is a shared, immutable `Arc<[u16]>`: a plan
/// builds each distinct list once and every op that touches it holds a
/// clone of the same allocation. A compiled plan has a handful of distinct
/// lists but up to hundreds of thousands of ops, and an owned `Vec` per op
/// made one heap allocation per op; sharing them (with the compiler's
/// per-record op buffers) cut a golden-scale Figure 12 pass, 162 compiles
/// and runs, from about 1.61 M heap allocations to about 24 K, and shrinks
/// an op from 40 to 32 bytes. `Arc` rather than `Rc` because a sweep
/// shares compiled traces across its worker threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Touch the named fields of one record of `table`.
    Fields {
        /// Index into the run's table list.
        table: u8,
        /// Record index.
        record: u64,
        /// Field indices touched (deduplicated to 16B sectors internally),
        /// shared with every other op of the plan that touches the same list.
        fields: Arc<[u16]>,
        /// Store (true) or load (false).
        write: bool,
    },
    /// Touch every field of one record (SELECT * / INSERT).
    Whole {
        /// Index into the run's table list.
        table: u8,
        /// Record index.
        record: u64,
        /// Store (true) or load (false).
        write: bool,
    },
    /// Pure CPU work, in CPU cycles (predicate evaluation, aggregation,
    /// loop overhead).
    Compute(u32),
}

impl TraceOp {
    /// A read of `fields` of `record` in table 0.
    pub fn read_fields(record: u64, fields: impl Into<Arc<[u16]>>) -> Self {
        TraceOp::Fields {
            table: 0,
            record,
            fields: fields.into(),
            write: false,
        }
    }

    /// A write of `fields` of `record` in table 0.
    pub fn write_fields(record: u64, fields: impl Into<Arc<[u16]>>) -> Self {
        TraceOp::Fields {
            table: 0,
            record,
            fields: fields.into(),
            write: true,
        }
    }

    /// A whole-record read in table 0.
    pub fn read_whole(record: u64) -> Self {
        TraceOp::Whole {
            table: 0,
            record,
            write: false,
        }
    }

    /// A whole-record write in table 0.
    pub fn write_whole(record: u64) -> Self {
        TraceOp::Whole {
            table: 0,
            record,
            write: true,
        }
    }

    /// CPU work.
    pub fn compute(cycles: u32) -> Self {
        TraceOp::Compute(cycles)
    }

    /// The table this op touches, if it touches one.
    pub fn table(&self) -> Option<u8> {
        match self {
            TraceOp::Fields { table, .. } | TraceOp::Whole { table, .. } => Some(*table),
            TraceOp::Compute(_) => None,
        }
    }
}

/// A per-core sequence of operations.
pub type Trace = Vec<TraceOp>;

/// Splits a set of record indices into contiguous chunks across `cores`
/// traces using `make_ops` to produce each record's ops (helper for plan
/// builders). Chunking — not round-robin — matches how parallel scans
/// partition ranges, and keeps each core the issuer of its own gather
/// groups' stride fills.
pub fn partition_records<F>(
    records: impl Iterator<Item = u64>,
    cores: usize,
    mut make_ops: F,
) -> Vec<Trace>
where
    F: FnMut(u64, &mut Trace),
{
    assert!(cores > 0, "need at least one core");
    let all: Vec<u64> = records.collect();
    let mut traces = vec![Trace::new(); cores];
    let chunk = all.len().div_ceil(cores).max(1);
    for (i, r) in all.into_iter().enumerate() {
        make_ops(r, &mut traces[(i / chunk).min(cores - 1)]);
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(
            TraceOp::read_fields(5, vec![1, 2]),
            TraceOp::Fields {
                table: 0,
                record: 5,
                fields: Arc::from([1, 2]),
                write: false
            }
        );
        assert_eq!(TraceOp::write_whole(9).table(), Some(0));
        assert_eq!(TraceOp::compute(3).table(), None);
    }

    #[test]
    fn a_trace_op_is_32_bytes() {
        // Kept small: a golden-scale plan holds hundreds of thousands of
        // ops, and the field list is a shared fat pointer, not a `Vec`.
        assert_eq!(std::mem::size_of::<TraceOp>(), 32);
    }

    #[test]
    fn partition_chunks_contiguously() {
        let traces = partition_records(0..10, 4, |r, t| t.push(TraceOp::read_whole(r)));
        assert_eq!(traces.len(), 4);
        assert_eq!(traces[0].len(), 3); // records 0, 1, 2
        assert_eq!(traces[1].len(), 3); // records 3, 4, 5
        assert_eq!(traces[2].len(), 3); // records 6, 7, 8
        assert_eq!(traces[3].len(), 1); // record 9
        assert_eq!(traces[1][0], TraceOp::read_whole(3));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn partition_zero_cores_panics() {
        partition_records(0..1, 0, |_, _| {});
    }
}
