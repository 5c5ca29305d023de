//! Tiling the selected loops onto a finite PE array.
//!
//! The STT maps the three selected loops onto `(p1, p2, t)`. Real arrays are
//! finite, so the selected loops are tiled until the spatial bounding box of
//! the mapped tile fits `rows × cols`; the remaining iterations run as
//! sequential tile steps (plus the kernel's never-selected outer loops).

use serde::Serialize;

use crate::array::ArrayConfig;
use tensorlib_dataflow::Stt;

/// The result of fitting a space-time tile onto a PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Tiling {
    /// Tile sizes of the three selected loops.
    pub tile_extents: [u64; 3],
    /// Number of tiles along each selected loop (`ceil(extent / tile)`).
    pub tile_counts: [u64; 3],
    /// Spatial bounding box of one tile (`p1`, `p2` sizes).
    pub space_size: [u64; 2],
    /// Offset subtracted from mapped `p` so coordinates start at 0.
    pub space_offset: [i64; 2],
    /// Time extent of one tile (cycles from first to last operation,
    /// inclusive — systolic skew included).
    pub t_extent: u64,
    /// Offset subtracted from mapped `t` so time starts at 0.
    pub t_offset: i64,
}

impl Tiling {
    /// Total number of tiles.
    pub fn total_tiles(&self) -> u64 {
        self.tile_counts.iter().product()
    }

    /// Loop points inside one full tile.
    pub fn points_per_tile(&self) -> u64 {
        self.tile_extents.iter().product()
    }
}

/// Computes a tiling of `extents` (the three selected loops) such that the
/// spatial image of one tile under `stt` fits the array.
///
/// The tile starts at the full extents and greedily shrinks the loop with the
/// largest contribution to whichever spatial dimension overflows. Loops that
/// only feed the time row keep their full extent (long compute per tile,
/// fewer reloads) — the behaviour hardware designers want from an
/// output-stationary schedule.
///
/// # Panics
///
/// Panics if the array is degenerate (zero rows or columns).
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::Stt;
/// use tensorlib_hw::array::ArrayConfig;
/// use tensorlib_hw::tiling::tile_for_array;
///
/// // Output-stationary GEMM, 64^3 onto a 16x16 array.
/// let t = Stt::output_stationary();
/// let tiling = tile_for_array(&t, [64, 64, 64], &ArrayConfig::square(16));
/// assert_eq!(tiling.tile_extents, [16, 16, 64]);
/// assert_eq!(tiling.tile_counts, [4, 4, 1]);
/// // Skew: t = m + n + k spans 16+16+64-3+1 cycles.
/// assert_eq!(tiling.t_extent, 94);
/// ```
pub fn tile_for_array(stt: &Stt, extents: [u64; 3], array: &ArrayConfig) -> Tiling {
    assert!(array.rows > 0 && array.cols > 0, "array must be nonempty");
    let caps = [array.rows as i64, array.cols as i64];
    let mut tile = extents;
    loop {
        let bounds = stt.space_time_bounds(&tile);
        let mut shrunk = false;
        for dim in 0..2 {
            let size = bounds[dim].1 - bounds[dim].0 + 1;
            if size > caps[dim] {
                // Shrink the contributing loop with the largest share.
                let row = stt.rows()[dim];
                let best = (0..3)
                    .filter(|&j| row[j] != 0 && tile[j] > 1)
                    .max_by_key(|&j| row[j].unsigned_abs() * (tile[j] - 1))
                    .expect("an overflowing dimension has a shrinkable loop");
                let excess = size - caps[dim];
                let reduce =
                    ((excess + row[best].abs() - 1) / row[best].abs()).max(1) as u64;
                tile[best] = tile[best].saturating_sub(reduce).max(1);
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            let t_bounds = bounds[2];
            let space_offset = [-bounds[0].0, -bounds[1].0];
            return Tiling {
                tile_extents: tile,
                tile_counts: [
                    extents[0].div_ceil(tile[0]),
                    extents[1].div_ceil(tile[1]),
                    extents[2].div_ceil(tile[2]),
                ],
                space_size: [
                    (bounds[0].1 - bounds[0].0 + 1) as u64,
                    (bounds[1].1 - bounds[1].0 + 1) as u64,
                ],
                space_offset,
                t_extent: (t_bounds.1 - t_bounds.0 + 1) as u64,
                t_offset: -t_bounds.0,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mapping_tiles_simply() {
        let t = Stt::identity();
        let tiling = tile_for_array(&t, [40, 40, 100], &ArrayConfig::square(16));
        assert_eq!(tiling.tile_extents, [16, 16, 100]);
        assert_eq!(tiling.tile_counts, [3, 3, 1]);
        assert_eq!(tiling.space_size, [16, 16]);
        assert_eq!(tiling.t_extent, 100);
        assert_eq!(tiling.total_tiles(), 9);
        assert_eq!(tiling.points_per_tile(), 16 * 16 * 100);
    }

    #[test]
    fn skewed_time_row_keeps_time_loop_whole() {
        let t = Stt::output_stationary();
        let tiling = tile_for_array(&t, [64, 64, 256], &ArrayConfig::square(16));
        assert_eq!(tiling.tile_extents, [16, 16, 256]);
        assert_eq!(tiling.t_extent, 16 + 16 + 256 - 2);
    }

    #[test]
    fn small_loops_leave_array_underused() {
        // Conv2D with p mapped to a space dim: extent 3 on 16 rows.
        let t = Stt::identity();
        let tiling = tile_for_array(&t, [3, 16, 64], &ArrayConfig::square(16));
        assert_eq!(tiling.tile_extents, [3, 16, 64]);
        assert_eq!(tiling.space_size, [3, 16]);
    }

    #[test]
    fn negative_coefficients_offset_space() {
        let t = Stt::from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]]).unwrap();
        let tiling = tile_for_array(&t, [8, 8, 8], &ArrayConfig::square(16));
        // p1 in [-7, 7]: 15 wide, fits; offset shifts to zero-based.
        assert_eq!(tiling.space_size[0], 15);
        assert_eq!(tiling.space_offset[0], 7);
    }

    #[test]
    fn oversized_loops_are_cut_to_fit() {
        let t = Stt::from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]).unwrap();
        let tiling = tile_for_array(&t, [100, 100, 10], &ArrayConfig::square(16));
        let b = t.space_time_bounds(&tiling.tile_extents);
        assert!(b[0].1 - b[0].0 < 16);
        assert!(b[1].1 - b[1].0 < 16);
        // All loops still at least 1.
        assert!(tiling.tile_extents.iter().all(|&e| e >= 1));
        // Tile counts cover the full domain.
        for i in 0..3 {
            assert!(tiling.tile_counts[i] * tiling.tile_extents[i] >= [100, 100, 10][i]);
        }
    }
}
