//! The durable storage plane: append-only segments, partitions, and the
//! key-hash partitioner.
//!
//! Everything in this module survives a broker crash (it models data
//! synced to disk); the broker's volatile state — connections, group
//! membership, parked fetches — lives in `broker.rs` and is wiped by
//! [`simfault::FaultSignal::BrokerCrash`].

use crate::protocol::FetchedRecord;
use telemetry::ProbeId;
use wire::Message;

/// One record as handed to [`PartitionLog::append`]. The log keeps only
/// its size: the message is dropped at append.
#[derive(Debug, Clone)]
pub struct StoredRecord {
    /// Telemetry probe threaded from the produce call.
    pub probe: ProbeId,
    /// Partitioning key.
    pub key: u32,
    /// The payload.
    pub message: Message,
}

/// One record at rest: 16 bytes. Nothing downstream of the log reads a
/// payload, only its `wire_size()`, so that is what the segment holds.
#[derive(Debug)]
struct AtRest {
    probe: ProbeId,
    key: u32,
    bytes: u32,
}

/// One append-only segment file: a base offset plus a dense run of
/// records. The log rolls a new segment every `segment_records` appends.
#[derive(Debug)]
struct Segment {
    /// Offset of the first record in this segment.
    base_offset: u64,
    /// The records, offset `base_offset + index`.
    records: Vec<AtRest>,
}

/// One partition: an ordered list of segments and the next offset to
/// assign. Offsets are dense and monotonic; nothing is ever deleted
/// (retention is out of scope for runs this short).
#[derive(Debug)]
pub struct PartitionLog {
    segments: Vec<Segment>,
    next_offset: u64,
    segment_records: u64,
}

impl PartitionLog {
    /// Empty partition rolling segments every `segment_records` appends.
    pub fn new(segment_records: u64) -> Self {
        PartitionLog {
            segments: Vec::new(),
            next_offset: 0,
            segment_records: segment_records.max(1),
        }
    }

    /// Append one record, returning its assigned offset. The record's
    /// message is sized here and dropped.
    pub fn append(&mut self, record: StoredRecord) -> u64 {
        let bytes = u32::try_from(record.message.wire_size())
            .expect("a record's wire size fits the log's u32 size field");
        let offset = self.next_offset;
        self.next_offset += 1;
        let roll = match self.segments.last() {
            None => true,
            Some(s) => s.records.len() as u64 >= self.segment_records,
        };
        if roll {
            self.segments.push(Segment {
                base_offset: offset,
                records: Vec::new(),
            });
        }
        self.segments
            .last_mut()
            .expect("just ensured")
            .records
            .push(AtRest {
                probe: record.probe,
                key: record.key,
                bytes,
            });
        offset
    }

    /// One past the last assigned offset (0 for an empty partition).
    pub fn end_offset(&self) -> u64 {
        self.next_offset
    }

    /// Total records across all segments.
    pub fn len(&self) -> u64 {
        self.next_offset
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.next_offset == 0
    }

    /// Read up to `max` records starting at `offset`, as fetch-response
    /// records. A read that runs past the end yields fewer records, and
    /// one that starts at or after the end yields none, never an error
    /// — exactly Kafka's fetch semantics.
    pub fn read_from(&self, offset: u64, max: usize) -> Vec<FetchedRecord> {
        let mut out = Vec::new();
        if offset >= self.next_offset || max == 0 {
            return out;
        }
        // Find the segment containing `offset` (segments are sorted by
        // base offset and dense).
        let seg_ix = match self
            .segments
            .binary_search_by_key(&offset, |s| s.base_offset)
        {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        let mut at = offset;
        for seg in &self.segments[seg_ix..] {
            if out.len() >= max {
                break;
            }
            let skip = (at.saturating_sub(seg.base_offset)) as usize;
            for (i, rec) in seg.records.iter().enumerate().skip(skip) {
                if out.len() >= max {
                    break;
                }
                out.push(FetchedRecord {
                    probe: rec.probe,
                    offset: seg.base_offset + i as u64,
                    key: rec.key,
                    bytes: rec.bytes,
                });
                at = seg.base_offset + i as u64 + 1;
            }
        }
        out
    }
}

/// One topic's partitions, indexed by the broker-local
/// [`wire::TopicId`] that named it.
#[derive(Debug)]
pub struct TopicLog {
    /// Interned id of this topic in the broker's table.
    pub id: wire::TopicId,
    /// The partitions.
    pub partitions: Vec<PartitionLog>,
}

impl TopicLog {
    /// Create a topic with `partitions` empty partitions.
    pub fn new(id: wire::TopicId, partitions: u32, segment_records: u64) -> Self {
        TopicLog {
            id,
            partitions: (0..partitions)
                .map(|_| PartitionLog::new(segment_records))
                .collect(),
        }
    }

    /// Total records across all partitions.
    pub fn total_records(&self) -> u64 {
        self.partitions.iter().map(PartitionLog::len).sum()
    }
}

/// Key-hash partition assignment (Fibonacci multiplicative hash — the
/// key space is the dense generator-id range, which a plain modulus
/// would stripe pathologically).
pub fn partition_for(key: u32, partitions: u32) -> u32 {
    debug_assert!(partitions > 0);
    (key.wrapping_mul(0x9E37_79B1) >> 16) % partitions.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use wire::{Headers, MessageId};

    fn rec(n: u64) -> StoredRecord {
        StoredRecord {
            probe: ProbeId(n),
            key: n as u32,
            message: Message::text(
                Headers::new(MessageId(n), "power.monitor", SimTime::ZERO),
                "x",
            ),
        }
    }

    #[test]
    fn offsets_are_dense_and_segments_roll() {
        let mut p = PartitionLog::new(4);
        for n in 0..10 {
            assert_eq!(p.append(rec(n)), n);
        }
        assert_eq!(p.end_offset(), 10);
        assert_eq!(p.segments.len(), 3); // 4 + 4 + 2
        let all = p.read_from(0, 100);
        assert_eq!(all.len(), 10);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
            assert_eq!(r.probe, ProbeId(i as u64));
        }
    }

    #[test]
    fn read_from_respects_offset_and_max() {
        let mut p = PartitionLog::new(3);
        for n in 0..9 {
            p.append(rec(n));
        }
        let mid = p.read_from(4, 3);
        assert_eq!(
            mid.iter().map(|r| r.offset).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert!(p.read_from(9, 5).is_empty());
        assert!(p.read_from(100, 5).is_empty());
        assert!(p.read_from(0, 0).is_empty());
        // Crossing a segment boundary mid-read.
        let cross = p.read_from(2, 4);
        assert_eq!(
            cross.iter().map(|r| r.offset).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn fetched_sizes_are_the_appended_sizes() {
        // Bodies of 0..7 × 100 bytes, across three segments of 3.
        let msg = |n: u64| {
            Message::text(
                Headers::new(MessageId(n), "power.monitor", SimTime::ZERO),
                "y".repeat(100 * n as usize),
            )
        };
        let mut p = PartitionLog::new(3);
        let sizes: Vec<usize> = (0..8).map(|n| msg(n).wire_size()).collect();
        for n in 0..8 {
            p.append(StoredRecord {
                probe: ProbeId(n),
                key: n as u32,
                message: msg(n),
            });
        }
        let fetched = p.read_from(1, 6);
        assert_eq!(
            fetched.iter().map(|r| r.offset).collect::<Vec<_>>(),
            (1..7).collect::<Vec<u64>>()
        );
        for r in &fetched {
            assert_eq!(r.bytes as usize, sizes[r.offset as usize]);
            assert_eq!(r.probe, ProbeId(r.offset));
        }
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for key in 0..1000u32 {
            let p = partition_for(key, 8);
            assert!(p < 8);
            assert_eq!(p, partition_for(key, 8));
        }
        // Dense keys must not all land in one partition.
        let hit: simcore::FastSet<u32> = (0..64).map(|k| partition_for(k, 8)).collect();
        assert!(hit.len() >= 4, "degenerate spread: {hit:?}");
    }

    #[test]
    fn topic_log_counts_records() {
        let mut t = TopicLog::new(wire::TopicId(0), 4, 16);
        assert_eq!(t.total_records(), 0);
        for n in 0..20 {
            let p = partition_for(n as u32, 4) as usize;
            t.partitions[p].append(rec(n));
        }
        assert_eq!(t.total_records(), 20);
    }
}
