//! Shapes, data types, runtime tensors and weight storage.
//!
//! Vision tensors use `NHWC` layout (the TFLite convention, which dominates
//! the paper's corpus at 86 % of models); sequence tensors are `[N, T]` or
//! `[N, T, C]`; plain feature vectors are `[N, C]`.

use crate::DnnError;

/// Element type of a tensor.
///
/// The paper's §6.1 quantisation analysis distinguishes float32 weights and
/// activations from int8 ones; `I32` appears as bias accumulator / index type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float (default for CPU/GPU execution in the paper).
    F32,
    /// 8-bit signed integer, affine-quantised.
    I8,
    /// 8-bit unsigned integer, affine-quantised (TFLite legacy quantisation).
    U8,
    /// 32-bit signed integer (token ids, bias accumulators).
    I32,
}

impl DType {
    /// Storage size of one element in bytes.
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::I8 | DType::U8 => 1,
        }
    }

    /// Short lower-case name used by the format codecs and reports.
    pub const fn name(self) -> &'static str {
        match self {
            DType::F32 => "float32",
            DType::I8 => "int8",
            DType::U8 => "uint8",
            DType::I32 => "int32",
        }
    }
}

/// A tensor shape: a list of dimension extents.
///
/// The leading dimension is always the batch dimension `N`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Build a shape from a slice of extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// `[n, h, w, c]` NHWC image shape.
    pub fn nhwc(n: usize, h: usize, w: usize, c: usize) -> Self {
        Shape(vec![n, h, w, c])
    }

    /// `[n, features]` vector shape.
    pub fn vec2(n: usize, features: usize) -> Self {
        Shape(vec![n, features])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count (product of all extents).
    pub fn elems(&self) -> usize {
        self.0.iter().product()
    }

    /// [`Shape::elems`], or `None` when it or the per-sample count
    /// overflows `usize` (extents read from a model file can be anything).
    pub(crate) fn checked_elems(&self) -> Option<usize> {
        match self.0.split_first() {
            None => Some(1),
            Some((&batch, per_sample)) => checked_product(per_sample)?.checked_mul(batch),
        }
    }

    /// Element count excluding the batch dimension.
    pub fn elems_per_sample(&self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            self.0[1..].iter().product()
        }
    }

    /// The batch extent (dimension 0), or 1 for rank-0 shapes.
    pub fn batch(&self) -> usize {
        self.0.first().copied().unwrap_or(1)
    }

    /// Returns a copy with the batch dimension replaced.
    pub fn with_batch(&self, n: usize) -> Shape {
        let mut d = self.0.clone();
        if d.is_empty() {
            d.push(n);
        } else {
            d[0] = n;
        }
        Shape(d)
    }

    /// Extent of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// For an NHWC shape, the `(h, w, c)` triple.
    pub fn hwc(&self) -> Option<(usize, usize, usize)> {
        if self.rank() == 4 {
            Some((self.0[1], self.0[2], self.0[3]))
        } else {
            None
        }
    }

    /// Last-dimension extent (channel count for NHWC, feature count for NC).
    pub fn channels(&self) -> usize {
        self.0.last().copied().unwrap_or(0)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

/// Product of `dims`, or `None` when it overflows `usize`.
pub(crate) fn checked_product(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// Affine quantisation parameters: `real = scale * (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Scale factor.
    pub scale: f32,
    /// Zero point in the quantised domain.
    pub zero_point: i32,
}

impl QuantParams {
    /// Identity-ish default used when a layer has no calibrated range.
    pub const UNIT: QuantParams = QuantParams {
        scale: 1.0,
        zero_point: 0,
    };

    /// Quantise a real value to i8 with saturation.
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x / self.scale).round() as i32 + self.zero_point;
        q.clamp(i8::MIN as i32, i8::MAX as i32) as i8
    }

    /// Dequantise an i8 value back to f32.
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }
}

/// Weight payload attached to a graph node.
///
/// Weights are what the paper md5-checksums for its uniqueness analysis
/// (§4.5), so the storage keeps the exact byte layout stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightData {
    /// Full-precision weights.
    F32(Vec<f32>),
    /// int8 affine-quantised weights.
    I8 {
        /// Quantised values.
        data: Vec<i8>,
        /// Quantisation parameters shared by the whole tensor.
        params: QuantParams,
    },
}

impl WeightData {
    /// Number of scalar weights stored.
    pub fn len(&self) -> usize {
        match self {
            WeightData::F32(v) => v.len(),
            WeightData::I8 { data, .. } => data.len(),
        }
    }

    /// True when no weights are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage dtype of the payload.
    pub fn dtype(&self) -> DType {
        match self {
            WeightData::F32(_) => DType::F32,
            WeightData::I8 { .. } => DType::I8,
        }
    }

    /// Read weight `i` as f32 (dequantising if needed).
    pub fn get(&self, i: usize) -> f32 {
        match self {
            WeightData::F32(v) => v[i],
            WeightData::I8 { data, params } => params.dequantize(data[i]),
        }
    }

    /// Materialise all weights as a dense f32 vector.
    pub fn to_f32(&self) -> Vec<f32> {
        match self {
            WeightData::F32(v) => v.clone(),
            WeightData::I8 { data, params } => {
                data.iter().map(|&q| params.dequantize(q)).collect()
            }
        }
    }

    /// Stable little-endian byte serialisation, used for checksumming.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            WeightData::F32(v) => {
                let mut out = Vec::with_capacity(v.len() * 4);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                out
            }
            WeightData::I8 { data, params } => {
                let mut out = Vec::with_capacity(data.len() + 8);
                out.extend_from_slice(&params.scale.to_le_bytes());
                out.extend_from_slice(&params.zero_point.to_le_bytes());
                out.extend(data.iter().map(|&b| b as u8));
                out
            }
        }
    }

    /// Fraction of weights with magnitude below `eps`.
    ///
    /// The paper reports 3.15 % of weights within ±1e-9 when probing for
    /// pruning headroom (§6.1).
    pub fn near_zero_fraction(&self, eps: f32) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let near = match self {
            WeightData::F32(v) => v.iter().filter(|x| x.abs() <= eps).count(),
            WeightData::I8 { data, params } => data
                .iter()
                .filter(|&&q| params.dequantize(q).abs() <= eps)
                .count(),
        };
        near as f64 / self.len() as f64
    }
}

/// What validation, shape inference and tracing read of a weight payload:
/// its element count and storage dtype, never its values. A graph stores
/// weights as any `Weights` type ([`WeightData`] owned, [`WeightBytes`]
/// borrowed from the model file).
pub trait Weights {
    /// Number of scalar weights stored.
    fn len(&self) -> usize;

    /// True when no weights are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage dtype of the payload.
    fn dtype(&self) -> DType;
}

impl Weights for WeightData {
    fn len(&self) -> usize {
        WeightData::len(self)
    }

    fn dtype(&self) -> DType {
        WeightData::dtype(self)
    }
}

/// A weight payload read in place from serialised model bytes, the way a
/// phone's interpreter reads a FlatBuffer's tensors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightBytes<'a> {
    /// Full-precision weights as little-endian f32 words.
    F32(&'a [[u8; 4]]),
    /// int8 affine-quantised weights, one byte each.
    I8 {
        /// Quantised values.
        data: &'a [u8],
        /// Quantisation parameters shared by the whole tensor.
        params: QuantParams,
    },
}

impl WeightBytes<'_> {
    /// Copy the payload out into an owned [`WeightData`].
    pub fn materialise(&self) -> WeightData {
        match *self {
            WeightBytes::F32(words) => {
                WeightData::F32(words.iter().map(|&w| f32::from_le_bytes(w)).collect())
            }
            WeightBytes::I8 { data, params } => WeightData::I8 {
                data: data.iter().map(|&b| b as i8).collect(),
                params,
            },
        }
    }
}

impl Weights for WeightBytes<'_> {
    fn len(&self) -> usize {
        match self {
            WeightBytes::F32(words) => words.len(),
            WeightBytes::I8 { data, .. } => data.len(),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            WeightBytes::F32(_) => DType::F32,
            WeightBytes::I8 { .. } => DType::I8,
        }
    }
}

/// A runtime activation tensor used by the reference executor.
///
/// Activations are always computed in f32; quantised execution dequantises on
/// load exactly like TFLite's reference kernels do.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Shape of the tensor.
    pub shape: Shape,
    /// Row-major (C-order) element storage.
    pub data: Vec<f32>,
}

impl Tensor {
    /// Create a zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.elems();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Create a tensor from raw data, validating the element count.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, DnnError> {
        if shape.elems() != data.len() {
            return Err(DnnError::BadInput(format!(
                "shape {shape} needs {} elems, got {}",
                shape.elems(),
                data.len()
            )));
        }
        Ok(Tensor { shape, data })
    }

    /// Fill with a deterministic pseudo-random pattern (for benchmark inputs;
    /// the paper feeds "a random input with the DNN-specified input
    /// dimensions", §4.7).
    pub fn random_like(shape: Shape, seed: u64) -> Self {
        let n = shape.elems();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            // xorshift64* — cheap, deterministic, good enough for inputs.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
            data.push((unit * 2.0 - 1.0) as f32);
        }
        Tensor {
            shape: shape.clone(),
            data,
        }
    }

    /// Index into an NHWC tensor.
    #[inline]
    pub fn at4(&self, n: usize, h: usize, w: usize, c: usize) -> f32 {
        let (_, hh, ww, cc) = (
            self.shape.0[0],
            self.shape.0[1],
            self.shape.0[2],
            self.shape.0[3],
        );
        self.data[((n * hh + h) * ww + w) * cc + c]
    }

    /// Mutable index into an NHWC tensor.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, h: usize, w: usize, c: usize) -> &mut f32 {
        let (hh, ww, cc) = (self.shape.0[1], self.shape.0[2], self.shape.0[3]);
        &mut self.data[((n * hh + h) * ww + w) * cc + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basics() {
        let s = Shape::nhwc(2, 8, 8, 3);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.elems(), 2 * 8 * 8 * 3);
        assert_eq!(s.elems_per_sample(), 8 * 8 * 3);
        assert_eq!(s.batch(), 2);
        assert_eq!(s.channels(), 3);
        assert_eq!(s.hwc(), Some((8, 8, 3)));
        assert_eq!(s.with_batch(5).batch(), 5);
        assert_eq!(format!("{s}"), "[2x8x8x3]");
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::I8.size_bytes(), 1);
        assert_eq!(DType::U8.size_bytes(), 1);
        assert_eq!(DType::I32.size_bytes(), 4);
        assert_eq!(DType::I8.name(), "int8");
    }

    #[test]
    fn quant_roundtrip_within_scale() {
        let q = QuantParams {
            scale: 0.05,
            zero_point: 3,
        };
        for &x in &[-1.0f32, -0.33, 0.0, 0.17, 1.0] {
            let back = q.dequantize(q.quantize(x));
            assert!((back - x).abs() <= 0.05 / 2.0 + 1e-6, "{x} -> {back}");
        }
    }

    #[test]
    fn quant_saturates() {
        let q = QuantParams {
            scale: 0.01,
            zero_point: 0,
        };
        assert_eq!(q.quantize(100.0), i8::MAX);
        assert_eq!(q.quantize(-100.0), i8::MIN);
    }

    #[test]
    fn weight_bytes_stable_and_distinct() {
        let w = WeightData::F32(vec![1.0, -2.5]);
        assert_eq!(w.to_bytes(), w.to_bytes());
        let w2 = WeightData::F32(vec![1.0, -2.4]);
        assert_ne!(w.to_bytes(), w2.to_bytes());
        assert_eq!(w.to_bytes().len(), 8);
    }

    #[test]
    fn near_zero_fraction_counts() {
        let w = WeightData::F32(vec![0.0, 1.0, 0.0, -1.0]);
        assert!((w.near_zero_fraction(1e-9) - 0.5).abs() < 1e-12);
        let empty = WeightData::F32(vec![]);
        assert_eq!(empty.near_zero_fraction(1e-9), 0.0);
    }

    #[test]
    fn tensor_from_vec_validates() {
        assert!(Tensor::from_vec(Shape::vec2(1, 3), vec![1.0, 2.0]).is_err());
        let t = Tensor::from_vec(Shape::vec2(1, 2), vec![1.0, 2.0]).unwrap();
        assert_eq!(t.data.len(), 2);
    }

    #[test]
    fn random_like_deterministic() {
        let a = Tensor::random_like(Shape::nhwc(1, 4, 4, 3), 42);
        let b = Tensor::random_like(Shape::nhwc(1, 4, 4, 3), 42);
        let c = Tensor::random_like(Shape::nhwc(1, 4, 4, 3), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data.iter().all(|x| (-1.0..=1.0).contains(x)));
    }

    #[test]
    fn i8_weights_roundtrip_via_get() {
        let params = QuantParams {
            scale: 0.1,
            zero_point: 0,
        };
        let w = WeightData::I8 {
            data: vec![10, -20],
            params,
        };
        assert!((w.get(0) - 1.0).abs() < 1e-6);
        assert!((w.get(1) + 2.0).abs() < 1e-6);
        assert_eq!(w.dtype(), DType::I8);
        assert_eq!(w.to_f32().len(), 2);
    }
}
