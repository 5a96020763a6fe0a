//! Uniform-grid spatial index over a fixed point set.
//!
//! Scenario generation repeatedly asks two geometric questions about the AP
//! layout: "is this candidate user position within radio range of *any*
//! AP?" (rejection sampling, mobility re-draws) and "which APs are within
//! range of this user, and how far?" (link building). Both were answered by
//! scanning every AP — O(APs) per query, O(APs × users) per scenario. A
//! [`SpatialGrid`] buckets the APs into square cells sized to the radio
//! range, so a query inspects only the ≤ 3×3 block of cells overlapping
//! the query disc: O(local APs) per query.
//!
//! Bit-for-bit equivalence with the scans it replaces: candidate hits are
//! tested with the *identical* predicate (`Point::distance`, `<= range`)
//! and [`SpatialGrid::neighbors_within`] returns matches sorted by point
//! index, so callers observe the same booleans, the same distances, and
//! the same order as the original ascending-index loops (property-tested
//! in `tests/grid_equivalence.rs`).

use crate::geometry::Point;

/// A uniform bucket grid over a fixed set of points (the APs).
///
/// Build once per scenario with [`SpatialGrid::build`]; query with any
/// radius (cells are merely a performance hint — correctness never depends
/// on the build-time cell size).
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    points: Vec<Point>,
    /// Cell side length (m); strictly positive.
    cell_m: f64,
    min_x: f64,
    min_y: f64,
    nx: usize,
    ny: usize,
    /// Point indices per cell, row-major (`iy * nx + ix`), each ascending.
    cells: Vec<Vec<u32>>,
    /// Per cell: whether any point lies in its 3×3 neighborhood. Lets
    /// [`SpatialGrid::covers`] reject a query in one lookup when the
    /// radius fits in a cell — the common case for rejection-sampled
    /// placement over sparsely covered areas.
    dilated: Vec<bool>,
}

impl SpatialGrid {
    /// Builds a grid over `points` with cells of side `cell_m` (clamped to
    /// a sane positive value; pass the radio range for range queries to
    /// touch at most a 3×3 cell block).
    pub fn build(points: &[Point], cell_m: f64) -> SpatialGrid {
        let cell_m = if cell_m.is_finite() && cell_m > 0.0 {
            cell_m
        } else {
            1.0
        };
        if points.is_empty() {
            return SpatialGrid {
                points: Vec::new(),
                cell_m,
                min_x: 0.0,
                min_y: 0.0,
                nx: 0,
                ny: 0,
                cells: Vec::new(),
                dilated: Vec::new(),
            };
        }
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let nx = (((max_x - min_x) / cell_m).floor() as usize) + 1;
        let ny = (((max_y - min_y) / cell_m).floor() as usize) + 1;
        let mut cells = vec![Vec::new(); nx * ny];
        for (i, p) in points.iter().enumerate() {
            let ix = clamp_cell((p.x - min_x) / cell_m, nx);
            let iy = clamp_cell((p.y - min_y) / cell_m, ny);
            cells[iy * nx + ix].push(i as u32);
        }
        let mut dilated = vec![false; nx * ny];
        for iy in 0..ny {
            for ix in 0..nx {
                if !cells[iy * nx + ix].is_empty() {
                    for jy in iy.saturating_sub(1)..=(iy + 1).min(ny - 1) {
                        for jx in ix.saturating_sub(1)..=(ix + 1).min(nx - 1) {
                            dilated[jy * nx + jx] = true;
                        }
                    }
                }
            }
        }
        SpatialGrid {
            points: points.to_vec(),
            cell_m,
            min_x,
            min_y,
            nx,
            ny,
            cells,
            dilated,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid indexes no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The cell index ranges overlapping the disc of radius `range` around
    /// `p`, or `None` when the grid is empty.
    fn cell_span(&self, p: &Point, range: f64) -> Option<(usize, usize, usize, usize)> {
        if self.points.is_empty() {
            return None;
        }
        let lo_x = (p.x - range - self.min_x) / self.cell_m;
        let hi_x = (p.x + range - self.min_x) / self.cell_m;
        let lo_y = (p.y - range - self.min_y) / self.cell_m;
        let hi_y = (p.y + range - self.min_y) / self.cell_m;
        let ix0 = clamp_cell(lo_x, self.nx);
        let ix1 = clamp_cell(hi_x, self.nx);
        let iy0 = clamp_cell(lo_y, self.ny);
        let iy1 = clamp_cell(hi_y, self.ny);
        // A disc fully left/right/above/below the box still clamps into the
        // border cells; the exact distance test rejects those points, so
        // clamping is safe (only a little redundant work).
        Some((ix0, ix1, iy0, iy1))
    }

    /// Whether any indexed point lies within `range` of `p` — the same
    /// predicate as `points.iter().any(|q| q.distance(p) <= range)`.
    pub fn covers(&self, p: &Point, range: f64) -> bool {
        // O(1) rejection: when the radius fits inside one cell, every point
        // within `range` of an in-bounds `p` lies in the 3×3 block around
        // `p`'s cell — if that whole block is empty (`!dilated`), no point
        // can satisfy the distance test. (NaN coordinates or an
        // out-of-bounds `p` fail the guards and take the exact path.)
        if range <= self.cell_m && !self.points.is_empty() {
            let fx = (p.x - self.min_x) / self.cell_m;
            let fy = (p.y - self.min_y) / self.cell_m;
            if fx >= 0.0 && fy >= 0.0 {
                let (ix, iy) = (fx as usize, fy as usize);
                if ix < self.nx && iy < self.ny && !self.dilated[iy * self.nx + ix] {
                    return false;
                }
            }
        }
        let Some((ix0, ix1, iy0, iy1)) = self.cell_span(p, range) else {
            return false;
        };
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                for &i in &self.cells[iy * self.nx + ix] {
                    if self.points[i as usize].distance(p) <= range {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// All indexed points within `range` of `p`, as `(index, distance)`
    /// pairs sorted by ascending index — the same hits, distances and
    /// order as the full ascending-index scan.
    pub fn neighbors_within(&self, p: &Point, range: f64) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        self.neighbors_within_into(p, range, &mut out);
        out
    }

    /// Buffer-reuse variant of [`SpatialGrid::neighbors_within`]: clears
    /// `out` and fills it with the same `(index, distance)` pairs in the
    /// same ascending-index order. Hot loops (link building) hold one
    /// buffer across queries so the per-query allocation disappears after
    /// warm-up.
    pub fn neighbors_within_into(&self, p: &Point, range: f64, out: &mut Vec<(u32, f64)>) {
        out.clear();
        self.for_each_within(p, range, |i, d| out.push((i, d)));
        out.sort_unstable_by_key(|&(i, _)| i);
    }

    /// The grid cell containing `p`, clamped into the grid bounds
    /// (`(0, 0)` on an empty grid) — the same mapping used to bucket the
    /// indexed points at build time.
    pub fn cell_of(&self, p: &Point) -> (usize, usize) {
        if self.points.is_empty() {
            return (0, 0);
        }
        (
            clamp_cell((p.x - self.min_x) / self.cell_m, self.nx),
            clamp_cell((p.y - self.min_y) / self.cell_m, self.ny),
        )
    }

    /// Cell counts along x and y (`(0, 0)` on an empty grid).
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Calls `f(index, distance)` for every indexed point within `range`
    /// of `p`, in unspecified order and without allocating. The hits and
    /// distances are exactly those of the full scan; callers that need the
    /// ascending-index order use [`SpatialGrid::neighbors_within`].
    pub fn for_each_within(&self, p: &Point, range: f64, mut f: impl FnMut(u32, f64)) {
        let Some((ix0, ix1, iy0, iy1)) = self.cell_span(p, range) else {
            return;
        };
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                for &i in &self.cells[iy * self.nx + ix] {
                    let d = self.points[i as usize].distance(p);
                    if d <= range {
                        f(i, d);
                    }
                }
            }
        }
    }
}

/// Clamps a fractional cell coordinate into `[0, n)`.
fn clamp_cell(v: f64, n: usize) -> usize {
    debug_assert!(n > 0);
    let v = v.floor();
    if v <= 0.0 {
        0
    } else {
        (v as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_covers(points: &[Point], p: &Point, range: f64) -> bool {
        points.iter().any(|q| q.distance(p) <= range)
    }

    fn scan_neighbors(points: &[Point], p: &Point, range: f64) -> Vec<(u32, f64)> {
        points
            .iter()
            .enumerate()
            .filter_map(|(i, q)| {
                let d = q.distance(p);
                (d <= range).then_some((i as u32, d))
            })
            .collect()
    }

    fn pseudo_points(n: usize, side: f64) -> Vec<Point> {
        // Deterministic scatter without pulling in an RNG.
        (0..n)
            .map(|i| {
                let a = (i as f64 * 0.754_877_666).fract();
                let b = (i as f64 * 0.569_840_290).fract();
                Point::new(a * side, b * side)
            })
            .collect()
    }

    #[test]
    fn matches_linear_scan() {
        let pts = pseudo_points(120, 1000.0);
        let grid = SpatialGrid::build(&pts, 200.0);
        for q in pseudo_points(60, 1200.0).iter().map(|p| Point {
            x: p.x - 100.0,
            y: p.y - 100.0,
        }) {
            for range in [0.0, 50.0, 200.0, 450.0] {
                assert_eq!(grid.covers(&q, range), scan_covers(&pts, &q, range));
                assert_eq!(
                    grid.neighbors_within(&q, range),
                    scan_neighbors(&pts, &q, range)
                );
            }
        }
    }

    #[test]
    fn empty_grid() {
        let grid = SpatialGrid::build(&[], 100.0);
        assert!(grid.is_empty());
        assert!(!grid.covers(&Point::new(0.0, 0.0), 1e9));
        assert!(grid.neighbors_within(&Point::new(0.0, 0.0), 1e9).is_empty());
    }

    #[test]
    fn single_point_and_degenerate_cell() {
        let pts = [Point::new(5.0, 5.0)];
        for cell in [0.0, f64::NAN, 200.0] {
            let grid = SpatialGrid::build(&pts, cell);
            assert!(grid.covers(&Point::new(5.0, 8.0), 3.0));
            assert!(!grid.covers(&Point::new(5.0, 8.1), 3.0));
        }
    }

    #[test]
    fn into_variant_matches_and_reuses_buffer() {
        let pts = pseudo_points(80, 500.0);
        let grid = SpatialGrid::build(&pts, 100.0);
        let mut buf = Vec::new();
        for q in pseudo_points(40, 600.0) {
            grid.neighbors_within_into(&q, 150.0, &mut buf);
            assert_eq!(buf, grid.neighbors_within(&q, 150.0));
        }
    }

    #[test]
    fn cell_of_matches_bucketing() {
        let pts = pseudo_points(50, 300.0);
        let grid = SpatialGrid::build(&pts, 75.0);
        let (nx, ny) = grid.dims();
        assert!(nx > 0 && ny > 0);
        for p in &pts {
            let (ix, iy) = grid.cell_of(p);
            assert!(ix < nx && iy < ny);
            // The point is bucketed in exactly that cell: a zero-radius
            // query from the cell's points must include it.
            assert!(grid.neighbors_within(p, 0.0).iter().any(|&(i, _)| {
                (pts[i as usize].x - p.x).abs() < 1e-12 && (pts[i as usize].y - p.y).abs() < 1e-12
            }));
        }
        assert_eq!(
            SpatialGrid::build(&[], 10.0).cell_of(&Point::new(1.0, 2.0)),
            (0, 0)
        );
    }

    #[test]
    fn far_away_query_hits_nothing() {
        let pts = pseudo_points(50, 100.0);
        let grid = SpatialGrid::build(&pts, 30.0);
        assert!(!grid.covers(&Point::new(-1e6, -1e6), 10.0));
        assert!(grid
            .neighbors_within(&Point::new(1e6, 1e6), 10.0)
            .is_empty());
    }
}
