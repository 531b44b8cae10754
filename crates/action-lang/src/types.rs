//! The bit-width-aware type system.
//!
//! Every scalar carries an exact width of 1–32 bits and a signedness,
//! written `int:N` / `uint:N` (with `bool` as sugar for `uint:1`). The
//! ASIP generator reads data-path requirements — bus width, ALU width,
//! register sizes — straight off these types, which is why the paper
//! stresses "careful range specification".

use std::fmt;

/// A scalar type: width plus signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar {
    /// Width in bits, 1..=32.
    pub width: u8,
    /// Two's-complement signed?
    pub signed: bool,
}

impl Scalar {
    /// `int:N`
    pub fn int(width: u8) -> Self {
        Scalar { width, signed: true }
    }

    /// `uint:N`
    pub fn uint(width: u8) -> Self {
        Scalar { width, signed: false }
    }

    /// `bool` = `uint:1`
    pub fn bool() -> Self {
        Scalar::uint(1)
    }

    /// The value mask for this width.
    pub fn mask(self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Truncates (and sign- or zero-extends) `v` to this type's domain.
    pub fn wrap(self, v: i64) -> i64 {
        let m = self.mask();
        let t = (v as u64) & m;
        if self.signed && self.width < 64 && t & (1 << (self.width - 1)) != 0 {
            (t | !m) as i64
        } else {
            t as i64
        }
    }

    /// The common type of a binary operation: max width, signed if either
    /// operand is signed.
    pub fn join(self, other: Scalar) -> Scalar {
        Scalar { width: self.width.max(other.width), signed: self.signed || other.signed }
    }

    /// Minimal width able to represent `v` (unsigned when `v >= 0`).
    pub fn fitting(v: i64) -> Scalar {
        if v >= 0 {
            let width = (64 - (v as u64).leading_zeros()).max(1) as u8;
            Scalar::uint(width.min(32))
        } else {
            let width = (65 - (!(v as u64)).leading_zeros()).max(2) as u8;
            Scalar::int(width.min(32))
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.signed {
            write!(f, "int:{}", self.width)
        } else {
            write!(f, "uint:{}", self.width)
        }
    }
}

/// A full type: void, scalar, named enum, named struct, or array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// No value (function returns only).
    Void,
    /// A width/signedness scalar.
    Scalar(Scalar),
    /// A named enumeration (runtime representation: `uint:8`).
    Enum(String),
    /// A named structure (configuration data; flattened into slots).
    Struct(String),
    /// Fixed-size array of scalars.
    Array(Scalar, u32),
}

impl Type {
    /// The scalar representation of this type, if it has one at runtime.
    pub fn as_scalar(&self) -> Option<Scalar> {
        match self {
            Type::Scalar(s) => Some(*s),
            Type::Enum(_) => Some(Scalar::uint(8)),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Enum(n) => write!(f, "enum {n}"),
            Type::Struct(n) => write!(f, "struct {n}"),
            Type::Array(s, n) => write!(f, "{s}[{n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_signed() {
        let t = Scalar::int(8);
        assert_eq!(t.wrap(127), 127);
        assert_eq!(t.wrap(128), -128);
        assert_eq!(t.wrap(-1), -1);
        assert_eq!(t.wrap(255), -1);
        assert_eq!(t.wrap(256), 0);
    }

    #[test]
    fn wrap_unsigned() {
        let t = Scalar::uint(8);
        assert_eq!(t.wrap(255), 255);
        assert_eq!(t.wrap(256), 0);
        assert_eq!(t.wrap(-1), 255);
    }

    #[test]
    fn join_widths() {
        assert_eq!(Scalar::int(8).join(Scalar::uint(16)), Scalar::int(16));
        assert_eq!(Scalar::uint(4).join(Scalar::uint(4)), Scalar::uint(4));
    }

    #[test]
    fn fitting_widths() {
        assert_eq!(Scalar::fitting(0), Scalar::uint(1));
        assert_eq!(Scalar::fitting(1), Scalar::uint(1));
        assert_eq!(Scalar::fitting(255), Scalar::uint(8));
        assert_eq!(Scalar::fitting(256), Scalar::uint(9));
        assert_eq!(Scalar::fitting(-1), Scalar::int(2));
        assert_eq!(Scalar::fitting(-128), Scalar::int(8));
    }

    #[test]
    fn wrap_is_idempotent() {
        for w in 1..=16u8 {
            for signed in [false, true] {
                let t = Scalar { width: w, signed };
                for v in -300..300i64 {
                    assert_eq!(t.wrap(t.wrap(v)), t.wrap(v), "w={w} signed={signed} v={v}");
                }
            }
        }
    }
}
