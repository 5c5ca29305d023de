//! Loop nests: ordered, named iterators with integer extents.

use std::fmt;

use serde::Serialize;

/// One loop iterator: a name and an extent (the loop runs `0..extent`).
///
/// # Examples
///
/// ```
/// use tensorlib_ir::LoopIter;
/// let it = LoopIter::new("k", 64);
/// assert_eq!(it.name(), "k");
/// assert_eq!(it.extent(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct LoopIter {
    name: String,
    extent: u64,
}

impl LoopIter {
    /// Creates an iterator named `name` running `0..extent`.
    ///
    /// # Panics
    ///
    /// Panics if `extent == 0` or `name` is empty.
    pub fn new(name: impl Into<String>, extent: u64) -> LoopIter {
        let name = name.into();
        assert!(!name.is_empty(), "loop iterator name must be nonempty");
        assert!(extent > 0, "loop extent must be positive");
        LoopIter { name, extent }
    }

    /// The iterator's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The iteration count.
    pub fn extent(&self) -> u64 {
        self.extent
    }
}

impl fmt::Display for LoopIter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in 0..{}", self.name, self.extent)
    }
}

/// An ordered perfect loop nest.
///
/// The order of iterators defines the coordinate system every access matrix
/// and STT matrix is expressed in.
///
/// # Examples
///
/// ```
/// use tensorlib_ir::LoopNest;
/// let nest = LoopNest::new(vec![("m", 16), ("n", 16), ("k", 64)]);
/// assert_eq!(nest.len(), 3);
/// assert_eq!(nest.index_of("k"), Some(2));
/// assert_eq!(nest.total_points(), 16 * 16 * 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct LoopNest {
    iters: Vec<LoopIter>,
}

impl LoopNest {
    /// Creates a loop nest from `(name, extent)` pairs, outermost first.
    ///
    /// # Panics
    ///
    /// Panics if names repeat, any extent is zero, or the nest is empty.
    pub fn new<S: Into<String>>(iters: Vec<(S, u64)>) -> LoopNest {
        let iters: Vec<LoopIter> = iters
            .into_iter()
            .map(|(n, e)| LoopIter::new(n, e))
            .collect();
        assert!(!iters.is_empty(), "loop nest must have at least one iterator");
        for (i, a) in iters.iter().enumerate() {
            for b in &iters[i + 1..] {
                assert!(a.name() != b.name(), "duplicate loop iterator {:?}", a.name());
            }
        }
        LoopNest { iters }
    }

    /// Number of iterators.
    pub fn len(&self) -> usize {
        self.iters.len()
    }

    /// Always `false`: a loop nest has at least one iterator.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The iterators in order.
    pub fn iters(&self) -> &[LoopIter] {
        &self.iters
    }

    /// The position of the iterator named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.iters.iter().position(|it| it.name() == name)
    }

    /// The extent of the iterator named `name`.
    pub fn extent_of(&self, name: &str) -> Option<u64> {
        self.iters
            .iter()
            .find(|it| it.name() == name)
            .map(LoopIter::extent)
    }

    /// All extents in iterator order.
    pub fn extents(&self) -> Vec<u64> {
        self.iters.iter().map(LoopIter::extent).collect()
    }

    /// All iterator names in order.
    pub fn names(&self) -> Vec<&str> {
        self.iters.iter().map(LoopIter::name).collect()
    }

    /// Total number of points in the iteration domain.
    pub fn total_points(&self) -> u64 {
        self.iters.iter().map(LoopIter::extent).product()
    }

    /// Iterates over every point of the iteration domain in lexicographic
    /// order (outermost iterator slowest). Each item is the iterator value
    /// vector in nest order.
    ///
    /// # Examples
    ///
    /// ```
    /// use tensorlib_ir::LoopNest;
    /// let nest = LoopNest::new(vec![("i", 2), ("j", 2)]);
    /// let pts: Vec<Vec<i64>> = nest.points().collect();
    /// assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    /// ```
    pub fn points(&self) -> Points {
        Points {
            extents: self.extents(),
            current: vec![0; self.iters.len()],
            done: false,
        }
    }
}

impl fmt::Display for LoopNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, it) in self.iters.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{it}")?;
        }
        Ok(())
    }
}

/// Iterator over all points of a [`LoopNest`], produced by
/// [`LoopNest::points`].
#[derive(Debug, Clone)]
pub struct Points {
    extents: Vec<u64>,
    current: Vec<i64>,
    done: bool,
}

impl Iterator for Points {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        // Odometer increment, innermost fastest.
        for d in (0..self.current.len()).rev() {
            self.current[d] += 1;
            if (self.current[d] as u64) < self.extents[d] {
                return Some(out);
            }
            self.current[d] = 0;
        }
        self.done = true;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let nest = LoopNest::new(vec![("i", 3), ("j", 4)]);
        assert_eq!(nest.len(), 2);
        assert_eq!(nest.extents(), vec![3, 4]);
        assert_eq!(nest.names(), vec!["i", "j"]);
        assert_eq!(nest.index_of("j"), Some(1));
        assert_eq!(nest.index_of("z"), None);
        assert_eq!(nest.extent_of("i"), Some(3));
        assert_eq!(nest.total_points(), 12);
        assert!(!nest.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panic() {
        let _ = LoopNest::new(vec![("i", 3), ("i", 4)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = LoopNest::new(vec![("i", 0)]);
    }

    #[test]
    fn points_enumerates_everything_once() {
        let nest = LoopNest::new(vec![("a", 2), ("b", 3), ("c", 2)]);
        let pts: Vec<Vec<i64>> = nest.points().collect();
        assert_eq!(pts.len(), 12);
        let mut sorted = pts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        // Lexicographic: first and last points.
        assert_eq!(pts[0], vec![0, 0, 0]);
        assert_eq!(pts[11], vec![1, 2, 1]);
    }

    #[test]
    fn display_forms() {
        let nest = LoopNest::new(vec![("m", 2)]);
        assert_eq!(nest.to_string(), "m in 0..2");
        assert_eq!(LoopIter::new("k", 5).to_string(), "k in 0..5");
    }
}
