//! The placement pass: bind shapes to concrete die rectangles.
//!
//! Placement runs against a [`FabricIndex`] mirror of the target die —
//! the same occupancy structure the chip itself maintains — seeded
//! with the expected defect plan, so a compiled layout routes around
//! known-bad clusters *before* deployment ever touches the hardware.
//!
//! The policy is deterministic and fragmentation-aware:
//!
//! * stages place **largest first** (descending cluster count, stable
//!   by stage index), so big rectangles claim contiguous space before
//!   small ones shred it;
//! * each stage takes the **row-major first fit** of its rectangle
//!   ([`FabricIndex::first_rect_fit`]), trying the transposed
//!   orientation before giving up;
//! * failure is the typed [`CompileError::Unplaceable`], naming the
//!   stage and shape — the caller can re-shape for a bigger die, not
//!   guess.

use crate::error::CompileError;
use crate::pipeline::Pass;
use crate::shape::Shape;
use vlsi_topology::switch::RegionTag;
use vlsi_topology::{Coord, FabricIndex, Region};

/// The placement artifact: one region per stage, in stage order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Placement {
    /// Stage regions (`regions[i]` is stage `i`'s rectangle).
    pub regions: Vec<Region>,
    /// Die width the layout targets.
    pub chip_width: u16,
    /// Die height the layout targets.
    pub chip_height: u16,
    /// Defects the layout avoided.
    pub defects: Vec<Coord>,
}

/// Places every stage of `shape` on a `chip_width × chip_height` die
/// with `defects` marked bad.
pub fn place(
    shape: &Shape,
    chip_width: u16,
    chip_height: u16,
    defects: &[Coord],
) -> Result<Placement, CompileError> {
    let mut index = FabricIndex::new(chip_width, chip_height);
    for &d in defects {
        index.mark_defective(d);
    }
    // Largest stages first; stable on stage index for determinism.
    let mut order: Vec<usize> = (0..shape.stages.len()).collect();
    order.sort_by_key(|&i| (usize::MAX - shape.stages[i].clusters(), i));

    let mut regions: Vec<Option<Region>> = vec![None; shape.stages.len()];
    for &i in &order {
        let st = &shape.stages[i];
        let fit = index
            .first_rect_fit(st.width, st.height)
            .map(|o| (o, st.width, st.height))
            .or_else(|| {
                index
                    .first_rect_fit(st.height, st.width)
                    .map(|o| (o, st.height, st.width))
            });
        let Some((origin, w, h)) = fit else {
            return Err(CompileError::Unplaceable {
                stage: i,
                width: st.width,
                height: st.height,
            });
        };
        let region = Region::rect(origin, w, h);
        for c in region.cells() {
            index.set_owner(c, RegionTag(i as u32));
        }
        regions[i] = Some(region);
    }
    let regions = regions
        .into_iter()
        .enumerate()
        .map(|(stage, r)| {
            r.ok_or(CompileError::BrokenArtifact {
                pass: Pass::Place,
                stage,
                node: None,
                what: "a stage left without a region",
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(Placement {
        regions,
        chip_width,
        chip_height,
        defects: defects.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::StageShape;

    fn shapes(dims: &[(u16, u16)]) -> Shape {
        Shape {
            stages: dims
                .iter()
                .map(|&(width, height)| StageShape {
                    width,
                    height,
                    compute_objects: 1,
                    memory_objects: 1,
                    est_wire_delay_ns: 1.0,
                })
                .collect(),
            year: 2012,
        }
    }

    #[test]
    fn placements_are_disjoint_and_deterministic() {
        let s = shapes(&[(2, 2), (4, 2), (1, 3)]);
        let a = place(&s, 8, 8, &[]).unwrap();
        let b = place(&s, 8, 8, &[]).unwrap();
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for r in &a.regions {
            for c in r.cells() {
                assert!(seen.insert(c), "overlap at {c:?}");
            }
        }
        // Largest-first: the 4×2 stage got the die corner.
        assert_eq!(a.regions[1], Region::rect(Coord::new(0, 0), 4, 2));
    }

    #[test]
    fn defects_are_routed_around() {
        let s = shapes(&[(2, 2)]);
        let clean = place(&s, 4, 4, &[]).unwrap();
        assert_eq!(clean.regions[0], Region::rect(Coord::new(0, 0), 2, 2));
        let dirty = place(&s, 4, 4, &[Coord::new(1, 1)]).unwrap();
        assert_eq!(dirty.regions[0], Region::rect(Coord::new(2, 0), 2, 2));
        for c in dirty.regions[0].cells() {
            assert_ne!(c, Coord::new(1, 1));
        }
    }

    #[test]
    fn transpose_rescues_a_tight_fit() {
        // A 4-wide, 1-tall die cannot hold 1×4 — but its transpose fits.
        let s = shapes(&[(1, 4)]);
        let p = place(&s, 4, 1, &[]).unwrap();
        assert_eq!(p.regions[0], Region::rect(Coord::new(0, 0), 4, 1));
    }

    #[test]
    fn unplaceable_is_typed_with_the_stage() {
        let s = shapes(&[(2, 2), (2, 2)]);
        // 2×2 die with one defect: the first stage cannot even fit.
        let err = place(&s, 2, 2, &[Coord::new(0, 0)]).unwrap_err();
        assert!(matches!(err, CompileError::Unplaceable { .. }));
        // Fragmentation case: two 2×2s on a 2×4 die fit; on 2×3 the
        // second is unplaceable and the error names it.
        assert!(place(&s, 2, 4, &[]).is_ok());
        match place(&s, 2, 3, &[]).unwrap_err() {
            CompileError::Unplaceable { stage, .. } => assert_eq!(stage, 1),
            e => panic!("unexpected {e}"),
        }
    }
}
