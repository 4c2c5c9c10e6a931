//! The typed data plane: scalar [`Value`]s and contiguous [`Buffer`]s.
//!
//! Buffers back both segment storage (exclusive variables) and the
//! replicated storage of universal variables. Arithmetic promotes
//! `i64 -> f64 -> complex`.

use crate::complex::Complex;
use xdp_ir::ElemType;

/// One element value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    I64(i64),
    F64(f64),
    C64(Complex),
}

#[allow(clippy::should_implement_trait)] // associated fns taking two Values, not operators
impl Value {
    /// The zero of a type.
    pub fn zero(ty: ElemType) -> Value {
        match ty {
            ElemType::I64 => Value::I64(0),
            ElemType::F64 => Value::F64(0.0),
            ElemType::C64 => Value::C64(Complex::ZERO),
        }
    }

    /// This value's type.
    pub fn ty(self) -> ElemType {
        match self {
            Value::I64(_) => ElemType::I64,
            Value::F64(_) => ElemType::F64,
            Value::C64(_) => ElemType::C64,
        }
    }

    /// View as f64 (integer widens; complex takes the real part).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I64(v) => v as f64,
            Value::F64(v) => v,
            Value::C64(c) => c.re,
        }
    }

    /// View as complex.
    pub fn as_c64(self) -> Complex {
        match self {
            Value::I64(v) => Complex::real(v as f64),
            Value::F64(v) => Complex::real(v),
            Value::C64(c) => c,
        }
    }

    /// View as i64 (floats truncate).
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            Value::F64(v) => v as i64,
            Value::C64(c) => c.re as i64,
        }
    }

    /// Coerce to a given element type.
    pub fn coerce(self, ty: ElemType) -> Value {
        match ty {
            ElemType::I64 => Value::I64(self.as_i64()),
            ElemType::F64 => Value::F64(self.as_f64()),
            ElemType::C64 => Value::C64(self.as_c64()),
        }
    }

    /// The type arithmetic on elements of types `a` and `b` yields:
    /// integer, widened to real, widened to complex.
    pub fn promote(a: ElemType, b: ElemType) -> ElemType {
        use ElemType::*;
        match (a, b) {
            (C64, _) | (_, C64) => C64,
            (F64, _) | (_, F64) => F64,
            _ => I64,
        }
    }

    /// Element addition with promotion.
    pub fn add(a: Value, b: Value) -> Value {
        match Value::promote(a.ty(), b.ty()) {
            ElemType::I64 => Value::I64(a.as_i64() + b.as_i64()),
            ElemType::F64 => Value::F64(a.as_f64() + b.as_f64()),
            ElemType::C64 => Value::C64(a.as_c64() + b.as_c64()),
        }
    }

    /// Element subtraction with promotion.
    pub fn sub(a: Value, b: Value) -> Value {
        match Value::promote(a.ty(), b.ty()) {
            ElemType::I64 => Value::I64(a.as_i64() - b.as_i64()),
            ElemType::F64 => Value::F64(a.as_f64() - b.as_f64()),
            ElemType::C64 => Value::C64(a.as_c64() - b.as_c64()),
        }
    }

    /// Element multiplication with promotion.
    pub fn mul(a: Value, b: Value) -> Value {
        match Value::promote(a.ty(), b.ty()) {
            ElemType::I64 => Value::I64(a.as_i64() * b.as_i64()),
            ElemType::F64 => Value::F64(a.as_f64() * b.as_f64()),
            ElemType::C64 => Value::C64(a.as_c64() * b.as_c64()),
        }
    }

    /// Element division (always at least f64).
    pub fn div(a: Value, b: Value) -> Value {
        match Value::promote(a.ty(), b.ty()) {
            ElemType::C64 => Value::C64(a.as_c64() / b.as_c64()),
            _ => Value::F64(a.as_f64() / b.as_f64()),
        }
    }

    /// Element negation.
    pub fn neg(a: Value) -> Value {
        match a {
            Value::I64(v) => Value::I64(-v),
            Value::F64(v) => Value::F64(-v),
            Value::C64(c) => Value::C64(-c),
        }
    }
}

/// A contiguous, homogeneously typed buffer of elements.
#[derive(Clone, PartialEq, Debug)]
pub enum Buffer {
    I64(Vec<i64>),
    F64(Vec<f64>),
    C64(Vec<Complex>),
}

impl Buffer {
    /// Zero-filled buffer of `len` elements.
    pub fn zeros(ty: ElemType, len: usize) -> Buffer {
        match ty {
            ElemType::I64 => Buffer::I64(vec![0; len]),
            ElemType::F64 => Buffer::F64(vec![0.0; len]),
            ElemType::C64 => Buffer::C64(vec![Complex::ZERO; len]),
        }
    }

    /// Element type.
    pub fn ty(&self) -> ElemType {
        match self {
            Buffer::I64(_) => ElemType::I64,
            Buffer::F64(_) => ElemType::F64,
            Buffer::C64(_) => ElemType::C64,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Buffer::I64(v) => v.len(),
            Buffer::F64(v) => v.len(),
            Buffer::C64(v) => v.len(),
        }
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes (drives the machine's per-byte cost).
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.ty().size_bytes()
    }

    /// Read element `i`.
    pub fn get(&self, i: usize) -> Value {
        match self {
            Buffer::I64(v) => Value::I64(v[i]),
            Buffer::F64(v) => Value::F64(v[i]),
            Buffer::C64(v) => Value::C64(v[i]),
        }
    }

    /// Write element `i` (coercing to the buffer's type).
    pub fn set(&mut self, i: usize, val: Value) {
        match self {
            Buffer::I64(v) => v[i] = val.as_i64(),
            Buffer::F64(v) => v[i] = val.as_f64(),
            Buffer::C64(v) => v[i] = val.as_c64(),
        }
    }

    /// Copy `count` elements from `src[src_off..]` into `self[dst_off..]`,
    /// coercing types.
    pub fn copy_from(&mut self, dst_off: usize, src: &Buffer, src_off: usize, count: usize) {
        for k in 0..count {
            self.set(dst_off + k, src.get(src_off + k));
        }
    }

    /// Make this buffer `len` copies of `val` (coerced to its type),
    /// reusing its storage.
    pub fn fill(&mut self, val: Value, len: usize) {
        match self {
            Buffer::I64(v) => {
                v.clear();
                v.resize(len, val.as_i64());
            }
            Buffer::F64(v) => {
                v.clear();
                v.resize(len, val.as_f64());
            }
            Buffer::C64(v) => {
                v.clear();
                v.resize(len, val.as_c64());
            }
        }
    }

    /// Extract a sub-buffer.
    pub fn slice(&self, off: usize, count: usize) -> Buffer {
        match self {
            Buffer::I64(v) => Buffer::I64(v[off..off + count].to_vec()),
            Buffer::F64(v) => Buffer::F64(v[off..off + count].to_vec()),
            Buffer::C64(v) => Buffer::C64(v[off..off + count].to_vec()),
        }
    }

    /// Mutable access to complex storage (for local FFT kernels).
    pub fn as_c64_mut(&mut self) -> Option<&mut Vec<Complex>> {
        match self {
            Buffer::C64(v) => Some(v),
            _ => None,
        }
    }

    /// Access to complex storage.
    pub fn as_c64(&self) -> Option<&[Complex]> {
        match self {
            Buffer::C64(v) => Some(v),
            _ => None,
        }
    }

    /// Access to f64 storage.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Buffer::F64(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_promotion() {
        assert_eq!(Value::add(Value::I64(2), Value::I64(3)), Value::I64(5));
        assert_eq!(Value::add(Value::I64(2), Value::F64(0.5)), Value::F64(2.5));
        assert_eq!(
            Value::mul(Value::F64(2.0), Value::C64(Complex::new(0.0, 1.0))),
            Value::C64(Complex::new(0.0, 2.0))
        );
        assert_eq!(Value::div(Value::I64(1), Value::I64(2)), Value::F64(0.5));
        assert_eq!(Value::neg(Value::I64(3)), Value::I64(-3));
    }

    #[test]
    fn value_coercion() {
        assert_eq!(Value::F64(2.9).coerce(ElemType::I64), Value::I64(2));
        assert_eq!(
            Value::I64(2).coerce(ElemType::C64),
            Value::C64(Complex::real(2.0))
        );
        assert_eq!(Value::zero(ElemType::F64), Value::F64(0.0));
    }

    #[test]
    fn buffer_roundtrip() {
        let mut b = Buffer::zeros(ElemType::F64, 4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.size_bytes(), 32);
        b.set(2, Value::F64(7.5));
        assert_eq!(b.get(2), Value::F64(7.5));
        b.set(3, Value::I64(2)); // coerces
        assert_eq!(b.get(3), Value::F64(2.0));
    }

    #[test]
    fn buffer_copy_and_slice() {
        let mut src = Buffer::zeros(ElemType::I64, 5);
        for i in 0..5 {
            src.set(i, Value::I64(i as i64 * 10));
        }
        let mut dst = Buffer::zeros(ElemType::F64, 5);
        dst.copy_from(1, &src, 2, 3);
        assert_eq!(dst.get(1), Value::F64(20.0));
        assert_eq!(dst.get(3), Value::F64(40.0));
        let s = src.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Value::I64(10));
    }

    #[test]
    fn complex_buffer_views() {
        let mut b = Buffer::zeros(ElemType::C64, 2);
        assert!(b.as_c64().is_some());
        assert!(b.as_f64().is_none());
        b.as_c64_mut().unwrap()[1] = Complex::new(1.0, 1.0);
        assert_eq!(b.get(1), Value::C64(Complex::new(1.0, 1.0)));
        assert_eq!(b.size_bytes(), 32);
    }
}
