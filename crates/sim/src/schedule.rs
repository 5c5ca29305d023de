//! The space-time schedule of one tile: the STT relation `[p; t] = T·x`
//! from loop points to (PE, cycle) stamps, walked forward. In tile-local
//! coordinates it is the same for every tile, so a design needs one.

use tensorlib_dataflow::Stt;
use tensorlib_hw::tiling::Tiling;
use tensorlib_hw::ArrayConfig;

/// Odometer over a multi-dimensional extent box (empty extents yield a single
/// empty point — the natural unit for "no outer loops").
pub(crate) struct OdometerIter {
    extents: Vec<u64>,
    current: Vec<u64>,
    done: bool,
}

impl OdometerIter {
    pub(crate) fn new(extents: &[u64]) -> OdometerIter {
        OdometerIter {
            extents: extents.to_vec(),
            current: vec![0; extents.len()],
            done: extents.contains(&0),
        }
    }
}

impl Iterator for OdometerIter {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Vec<u64>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        for d in (0..self.current.len()).rev() {
            self.current[d] += 1;
            if self.current[d] < self.extents[d] {
                return Some(out);
            }
            self.current[d] = 0;
        }
        self.done = true;
        Some(out)
    }
}

/// One multiply-accumulate of a tile: which loop point runs where and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// Tile-local point of the three selected loops.
    pub x: [i64; 3],
    /// PE coordinates `(row, col)`.
    pub pe: [usize; 2],
    /// Tile-local cycle.
    pub t: usize,
}

/// Every slot of one tile, ordered by `(t, pe_r, pe_c)`: cycle by cycle,
/// PEs in row-major order. `T` is nonsingular, so no two points share a
/// stamp and the order is total.
pub(crate) fn tile_slots(stt: &Stt, tiling: &Tiling, array: &ArrayConfig) -> Vec<Slot> {
    let on_array = |v: i64, len: usize| usize::try_from(v).ok().filter(|&v| v < len);
    let mut slots = Vec::with_capacity(tiling.points_per_tile() as usize);
    for x in OdometerIter::new(&tiling.tile_extents) {
        let x = [x[0] as i64, x[1] as i64, x[2] as i64];
        let [p1, p2, t] = stt.apply(&x);
        let stamp = (
            on_array(p1 + tiling.space_offset[0], array.rows),
            on_array(p2 + tiling.space_offset[1], array.cols),
            on_array(t + tiling.t_offset, tiling.t_extent as usize),
        );
        if let (Some(r), Some(c), Some(t)) = stamp {
            slots.push(Slot { x, pe: [r, c], t });
        }
    }
    slots.sort_unstable_by_key(|s| (s.t, s.pe));
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorlib_hw::tiling::tile_for_array;

    /// The relation run backwards: every (cycle, PE) slot solves
    /// `x = T⁻¹·[p; t]` and keeps an integer preimage in the tile box.
    fn inverse_walk(stt: &Stt, tiling: &Tiling, array: &ArrayConfig) -> Vec<Slot> {
        let mut slots = Vec::new();
        for t in 0..tiling.t_extent as usize {
            for r in 0..array.rows {
                for c in 0..array.cols {
                    let st = [
                        r as i64 - tiling.space_offset[0],
                        c as i64 - tiling.space_offset[1],
                        t as i64 - tiling.t_offset,
                    ];
                    let Some(x) = stt.unapply(&st) else {
                        continue;
                    };
                    if (0..3).all(|d| (0..tiling.tile_extents[d] as i64).contains(&x[d])) {
                        slots.push(Slot { x, pe: [r, c], t });
                    }
                }
            }
        }
        slots
    }

    const MENU: [[[i64; 3]; 3]; 5] = [
        // The three GEMM dataflows: output-stationary, weight-stationary,
        // multicast.
        [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
        [[0, 0, 1], [0, 1, 0], [1, 1, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        // Negative coefficients: a nonzero space offset.
        [[1, -1, 0], [0, 1, 0], [0, 0, 1]],
        // det -2: half the (PE, cycle) slots have no integer preimage.
        [[1, 1, 0], [1, -1, 0], [0, 0, 1]],
    ];

    #[test]
    fn forward_walk_equals_inverse_walk_in_order() {
        for rows in MENU {
            let stt = Stt::from_rows(rows).unwrap();
            for (extents, array) in [
                ([6, 5, 7], ArrayConfig::square(4)),
                ([3, 3, 3], ArrayConfig { rows: 8, cols: 5 }),
                ([8, 2, 4], ArrayConfig { rows: 2, cols: 16 }),
            ] {
                let tiling = tile_for_array(&stt, extents, &array);
                let slots = tile_slots(&stt, &tiling, &array);
                assert_eq!(slots, inverse_walk(&stt, &tiling, &array), "{stt} {extents:?}");
                // The tiling fits the whole tile box onto the array.
                assert_eq!(slots.len() as u64, tiling.points_per_tile(), "{stt}");
            }
        }
        let offset = tile_for_array(
            &Stt::from_rows(MENU[3]).unwrap(),
            [6, 5, 7],
            &ArrayConfig::square(4),
        );
        assert_ne!(offset.space_offset, [0, 0]);
    }

    #[test]
    fn shifted_offset_drops_exactly_the_points_that_leave_the_array() {
        let array = ArrayConfig::square(4);
        for rows in MENU {
            let stt = Stt::from_rows(rows).unwrap();
            let tiling = tile_for_array(&stt, [8, 8, 8], &array);
            let mut shifted = tiling;
            shifted.space_offset[0] += 1;
            let moved: Vec<Slot> = tile_slots(&stt, &tiling, &array)
                .into_iter()
                .filter(|s| s.pe[0] + 1 < array.rows)
                .map(|s| Slot {
                    pe: [s.pe[0] + 1, s.pe[1]],
                    ..s
                })
                .collect();
            let slots = tile_slots(&stt, &shifted, &array);
            assert!((slots.len() as u64) < tiling.points_per_tile(), "{stt}");
            assert_eq!(slots, moved, "{stt}");
            assert_eq!(slots, inverse_walk(&stt, &shifted, &array), "{stt}");
        }
    }
}
