//! Minimal complex arithmetic for the data plane (the paper's 3-D FFT
//! example operates on complex arrays).

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number of two `f64`s.
#[derive(Clone, Copy, PartialEq, Default, Debug)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Construct from parts.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// A real number.
    pub fn real(re: f64) -> Complex {
        Complex { re, im: 0.0 }
    }

    /// `e^{i theta}` — the FFT twiddle factor.
    pub fn cis(theta: f64) -> Complex {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, o: Complex) -> Complex {
        let d = o.norm_sqr();
        Complex {
            re: (self.re * o.re + self.im * o.im) / d,
            im: (self.im * o.re - self.re * o.im) / d,
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, s: f64) -> Complex {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Complex {
        Complex::real(re)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert!(close(a * b / b, a));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..8 {
            let t = k as f64 * std::f64::consts::PI / 4.0;
            assert!((Complex::cis(t).abs() - 1.0).abs() < 1e-12);
        }
        assert!(close(
            Complex::cis(std::f64::consts::PI),
            Complex::new(-1.0, 0.0)
        ));
    }

    #[test]
    fn norm() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.norm_sqr(), 25.0);
    }

    #[test]
    fn display() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
