//! Segment descriptors (§3.1).
//!
//! The compiler logically divides each processor's local partition of an
//! array into *segments*; ownership is transferred at segment granularity.
//! The paper's C declaration:
//!
//! ```c
//! struct SegmentDesc {
//!     int status;            /* accessibility status */
//!     int lbound[rank];      /* lower bound indices */
//!     int ubound[rank];      /* upper bound indices */
//!     int stride[rank];      /* strides */
//!     long segptr;           /* pointer to segment */
//! } segdesc [#segments];
//! ```
//!
//! Here `lbound/ubound/stride` are held as a [`Section`] in *global* index
//! coordinates, and `segptr` is the owned storage ([`Buffer`]) itself —
//! present only while the segment is owned, so that transferring ownership
//! out actually releases the storage (the address-space-reuse benefit of
//! §2.6).

use crate::value::{Buffer, Value};
use xdp_ir::{ElemType, Section};

/// The state of a segment on this processor (Figure 1, "states of a
/// section").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SegStatus {
    /// Not owned by this processor.
    Unowned,
    /// Owned, with an initiated but uncompleted receive — the value is
    /// unpredictable.
    Transitional,
    /// Owned and no uncompleted receives.
    Accessible,
}

impl SegStatus {
    /// Owned = transitional or accessible.
    pub fn is_owned(self) -> bool {
        !matches!(self, SegStatus::Unowned)
    }
}

/// One segment of a processor's local partition.
#[derive(Clone, Debug)]
pub struct SegmentDesc {
    /// Accessibility status.
    pub status: SegStatus,
    /// Global-coordinate bounds of the elements in this segment
    /// (the paper's `lbound`/`ubound`/`stride` arrays).
    pub section: Section,
    /// The segment's storage, row-major over `section`; `None` when
    /// unowned (storage released / not yet received).
    pub data: Option<Buffer>,
}

impl SegmentDesc {
    /// A fresh, owned, zero-initialized segment.
    pub fn owned(section: Section, elem: ElemType) -> SegmentDesc {
        let len = section.volume() as usize;
        SegmentDesc {
            status: SegStatus::Accessible,
            section,
            data: Some(Buffer::zeros(elem, len)),
        }
    }

    /// A placeholder created when an ownership receive is initiated: the
    /// section is owned-but-transitional, storage not yet present.
    pub fn placeholder(section: Section) -> SegmentDesc {
        SegmentDesc {
            status: SegStatus::Transitional,
            section,
            data: None,
        }
    }

    /// Paper accessor: `lbound[d]`.
    pub fn lbound(&self, d: usize) -> i64 {
        self.section.dim(d).lb
    }

    /// Paper accessor: `ubound[d]`.
    pub fn ubound(&self, d: usize) -> i64 {
        self.section.dim(d).ub
    }

    /// Paper accessor: `stride[d]`.
    pub fn stride(&self, d: usize) -> i64 {
        self.section.dim(d).st
    }

    /// Number of elements.
    pub fn volume(&self) -> i64 {
        self.section.volume()
    }

    /// Bytes of live storage.
    pub fn storage_bytes(&self) -> u64 {
        self.data.as_ref().map_or(0, |b| b.size_bytes())
    }

    /// Read the element at global index `idx`, if this segment holds it and
    /// has storage.
    pub fn read(&self, idx: &[i64]) -> Option<Value> {
        let ord = self.section.ordinal_of(idx)?;
        self.data.as_ref().map(|b| b.get(ord as usize))
    }

    /// Write the element at global index `idx`. Returns false if the index
    /// is not in this segment or storage is absent.
    pub fn write(&mut self, idx: &[i64], val: Value) -> bool {
        match (self.section.ordinal_of(idx), self.data.as_mut()) {
            (Some(ord), Some(b)) => {
                b.set(ord as usize, val);
                true
            }
            _ => false,
        }
    }

    /// Release storage and mark unowned; returns the bytes freed.
    ///
    /// The descriptor's bounds are cleared to the empty section: §3.1
    /// requires the symbol table "to reflect the data that is currently
    /// owned", and a stale extent would make the `iown()` algorithm's
    /// any-intersecting-unowned-segment rule shadow a section later
    /// re-received into a different descriptor slot.
    pub fn release(&mut self) -> u64 {
        let freed = self.storage_bytes();
        self.data = None;
        self.status = SegStatus::Unowned;
        self.section.clear();
        freed
    }
}

/// Cut one rectangular piece of a local partition into segments of the
/// given per-dimension *local* shape (§3.1, Figure 3). Segments at the
/// partition edge are clamped. `None` shape means one segment for the whole
/// rectangle.
pub fn segment_sections(rect: &Section, shape: Option<&[i64]>) -> Vec<Section> {
    let shape = match shape {
        None => return vec![rect.clone()],
        Some(s) => s,
    };
    assert_eq!(shape.len(), rect.rank(), "segment shape rank mismatch");
    assert!(
        shape.iter().all(|&s| s >= 1),
        "segment extents must be >= 1"
    );
    // Per-dimension: split the rect's triplet into runs of `shape[d]`
    // consecutive owned elements.
    let mut per_dim: Vec<Vec<xdp_ir::Triplet>> = Vec::with_capacity(rect.rank());
    for (d, &extent) in shape.iter().enumerate() {
        let t = rect.dim(d);
        let mut runs = Vec::new();
        let mut start = 0i64;
        while start < t.count() {
            let end = (start + extent - 1).min(t.count() - 1);
            runs.push(xdp_ir::Triplet::new(
                t.nth(start).unwrap(),
                t.nth(end).unwrap(),
                t.st,
            ));
            start = end + 1;
        }
        per_dim.push(runs);
    }
    let mut secs = vec![Vec::new()];
    for runs in &per_dim {
        let mut next = Vec::with_capacity(secs.len() * runs.len());
        for s in &secs {
            for r in runs {
                let mut s2: Vec<xdp_ir::Triplet> = s.clone();
                s2.push(*r);
                next.push(s2);
            }
        }
        secs = next;
    }
    secs.into_iter().map(Section::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdp_ir::Triplet;

    fn sec(dims: &[(i64, i64, i64)]) -> Section {
        Section::new(
            dims.iter()
                .map(|&(l, u, s)| Triplet::new(l, u, s))
                .collect(),
        )
    }

    #[test]
    fn owned_segment_read_write() {
        let mut seg = SegmentDesc::owned(sec(&[(3, 4, 1), (5, 8, 1)]), ElemType::F64);
        assert_eq!(seg.volume(), 8);
        assert_eq!(seg.storage_bytes(), 64);
        assert!(seg.write(&[3, 6], Value::F64(9.0)));
        assert_eq!(seg.read(&[3, 6]), Some(Value::F64(9.0)));
        assert!(!seg.write(&[1, 6], Value::F64(1.0))); // outside
        assert_eq!(seg.read(&[9, 9]), None);
    }

    #[test]
    fn paper_field_accessors() {
        let seg = SegmentDesc::owned(sec(&[(9, 16, 1), (2, 16, 2)]), ElemType::F64);
        assert_eq!(seg.lbound(0), 9);
        assert_eq!(seg.ubound(0), 16);
        assert_eq!(seg.stride(0), 1);
        assert_eq!(seg.lbound(1), 2);
        assert_eq!(seg.stride(1), 2);
    }

    #[test]
    fn release_frees_storage() {
        let mut seg = SegmentDesc::owned(sec(&[(1, 4, 1)]), ElemType::C64);
        assert_eq!(seg.release(), 64);
        assert_eq!(seg.status, SegStatus::Unowned);
        assert_eq!(seg.read(&[1]), None);
        assert!(!seg.status.is_owned());
    }

    /// What `RtSymbolTable::classify`'s scan count rests on: a released
    /// descriptor meets no query, so §3.1's scan never stops at an unowned
    /// one and always examines every descriptor.
    #[test]
    fn a_released_segment_has_an_empty_section() {
        let mut seg = SegmentDesc::owned(sec(&[(9, 16, 1), (2, 16, 2)]), ElemType::F64);
        seg.release();
        assert!(seg.section.is_empty());
        assert_eq!(seg.section.rank(), 2);
        assert_eq!(
            seg.section
                .intersect_volume(&sec(&[(1, 99, 1), (1, 99, 1)])),
            0
        );
        assert_eq!(
            seg.section.intersect_volume(&sec(&[(1, 0, 1), (1, 0, 1)])),
            0
        );
    }

    #[test]
    fn placeholder_is_transitional_without_storage() {
        let seg = SegmentDesc::placeholder(sec(&[(1, 4, 1)]));
        assert_eq!(seg.status, SegStatus::Transitional);
        assert!(seg.status.is_owned());
        assert_eq!(seg.storage_bytes(), 0);
        assert_eq!(seg.read(&[1]), None);
    }

    #[test]
    fn fig3_block_block_2x1_segments() {
        // Figure 3(a): 4x8 array (BLOCK,BLOCK) on 2x2; P3 owns [3:4,5:8].
        // 2x1 segments -> four segments, one per owned column.
        let rect = sec(&[(3, 4, 1), (5, 8, 1)]);
        let segs = segment_sections(&rect, Some(&[2, 1]));
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0], sec(&[(3, 4, 1), (5, 5, 1)]));
        assert_eq!(segs[3], sec(&[(3, 4, 1), (8, 8, 1)]));
    }

    #[test]
    fn fig2_b_4x2_segments() {
        // Figure 2's B on P3: rows 9:16, cols 2:16:2 (cyclic). (4,2)
        // segments -> 2 row-chunks x 4 col-chunks = 8 segments; column
        // chunks inherit the cyclic stride.
        let rect = sec(&[(9, 16, 1), (2, 16, 2)]);
        let segs = segment_sections(&rect, Some(&[4, 2]));
        assert_eq!(segs.len(), 8);
        assert_eq!(segs[0], sec(&[(9, 12, 1), (2, 4, 2)]));
        assert_eq!(segs[7], sec(&[(13, 16, 1), (14, 16, 2)]));
        let total: i64 = segs.iter().map(|s| s.volume()).sum();
        assert_eq!(total, rect.volume());
    }

    #[test]
    fn clamped_edge_segments() {
        // 5 elements in runs of 2: 2+2+1.
        let rect = sec(&[(1, 5, 1)]);
        let segs = segment_sections(&rect, Some(&[2]));
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[2], sec(&[(5, 5, 1)]));
    }

    #[test]
    fn none_shape_is_single_segment() {
        let rect = sec(&[(1, 4, 1), (1, 8, 1)]);
        assert_eq!(segment_sections(&rect, None), vec![rect]);
    }

    #[test]
    fn segments_partition_rect() {
        let rect = sec(&[(2, 11, 3), (1, 7, 2)]);
        let segs = segment_sections(&rect, Some(&[3, 2]));
        let total: i64 = segs.iter().map(|s| s.volume()).sum();
        assert_eq!(total, rect.volume());
        // Disjoint and all inside rect.
        for (i, a) in segs.iter().enumerate() {
            assert!(rect.covers(a));
            for b in &segs[i + 1..] {
                assert!(!a.overlaps(b));
            }
        }
    }
}
