//! Tensor shapes with NHWC helpers.

use std::fmt;

/// A dynamically-ranked tensor shape.
///
/// Mobile vision models are NHWC throughout, so convenience accessors for
/// the 4-D case are provided; other ranks (2-D for BERT logits, 1-D for
/// scores) work through the generic API.
///
/// # Example
///
/// ```
/// use aitax_tensor::Shape;
/// let s = Shape::nhwc(1, 224, 224, 3);
/// assert_eq!(s.elements(), 150_528);
/// assert_eq!(s.height(), Some(224));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from raw dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the element count overflows `usize`.
    pub fn new(dims: &[usize]) -> Self {
        let s = Shape(dims.to_vec());
        #[expect(
            clippy::expect_used,
            reason = "documented panic: an overflowing element count is unrepresentable"
        )]
        s.checked_elements()
            .expect("shape element count overflows usize");
        s
    }

    /// Creates a 4-D NHWC shape.
    pub fn nhwc(n: usize, h: usize, w: usize, c: usize) -> Self {
        Shape::new(&[n, h, w, c])
    }

    /// Creates a square single-batch image shape `1 × side × side × c`.
    pub fn square_image(side: usize, channels: usize) -> Self {
        Shape::nhwc(1, side, side, channels)
    }

    /// The raw dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    #[expect(
        clippy::expect_used,
        reason = "the element count was validated at construction"
    )]
    pub fn elements(&self) -> usize {
        self.checked_elements().expect("validated at construction")
    }

    fn checked_elements(&self) -> Option<usize> {
        self.0.iter().try_fold(1usize, |a, &d| a.checked_mul(d))
    }

    /// Batch dimension of a rank-4 shape.
    pub fn batch(&self) -> Option<usize> {
        (self.rank() == 4).then(|| self.0[0])
    }

    /// Height of a rank-4 NHWC shape.
    pub fn height(&self) -> Option<usize> {
        (self.rank() == 4).then(|| self.0[1])
    }

    /// Width of a rank-4 NHWC shape.
    pub fn width(&self) -> Option<usize> {
        (self.rank() == 4).then(|| self.0[2])
    }

    /// Channel count of a rank-4 NHWC shape.
    pub fn channels(&self) -> Option<usize> {
        (self.rank() == 4).then(|| self.0[3])
    }

    /// A copy with the spatial dimensions replaced (rank-4 only).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not rank 4.
    pub fn with_spatial(&self, h: usize, w: usize) -> Shape {
        assert_eq!(self.rank(), 4, "with_spatial requires an NHWC shape");
        Shape::nhwc(self.0[0], h, w, self.0[3])
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nhwc_accessors() {
        let s = Shape::nhwc(2, 10, 20, 3);
        assert_eq!(s.batch(), Some(2));
        assert_eq!(s.height(), Some(10));
        assert_eq!(s.width(), Some(20));
        assert_eq!(s.channels(), Some(3));
        assert_eq!(s.elements(), 1200);
    }

    #[test]
    fn non_rank4_accessors_are_none() {
        let s = Shape::new(&[5, 7]);
        assert_eq!(s.height(), None);
        assert_eq!(s.channels(), None);
        assert_eq!(s.elements(), 35);
    }

    #[test]
    fn empty_dim_gives_zero_elements() {
        let s = Shape::new(&[4, 0, 3]);
        assert_eq!(s.elements(), 0);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.elements(), 1);
    }

    #[test]
    fn with_spatial_replaces_hw() {
        let s = Shape::nhwc(1, 224, 224, 3).with_spatial(32, 64);
        assert_eq!(s, Shape::nhwc(1, 32, 64, 3));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflow_is_rejected() {
        Shape::new(&[usize::MAX, 2]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::nhwc(1, 2, 3, 4).to_string(), "[1x2x3x4]");
    }
}
