//! GF(2^m) arithmetic via log/antilog tables.
//!
//! BCH decoding works in the finite field GF(2^m) generated by a primitive
//! polynomial. Elements are represented as `u16` bit vectors of the
//! polynomial basis; multiplication and division go through discrete
//! log/antilog tables built at construction time.

use std::sync::OnceLock;

/// Primitive polynomials for GF(2^m), m = 3..=14, as bit masks including the
/// leading term (e.g. m=4: `x^4 + x + 1` → 0b1_0011).
const PRIMITIVE_POLYS: [(u32, u32); 12] = [
    (3, 0b1011),
    (4, 0b1_0011),
    (5, 0b10_0101),
    (6, 0b100_0011),
    (7, 0b1000_1001),
    (8, 0b1_0001_1101),
    (9, 0b10_0001_0001),
    (10, 0b100_0000_1001),
    (11, 0b1000_0000_0101),
    (12, 0b1_0000_0101_0011),
    (13, 0b10_0000_0001_1011),
    (14, 0b100_0100_0100_0011),
];

/// A GF(2^m) field with log/antilog tables.
///
/// # Examples
///
/// ```
/// use mrm_ecc::gf::Gf;
///
/// let gf = Gf::new(4);
/// let a = 0b0110;
/// let inv = gf.inv(a);
/// assert_eq!(gf.mul(a, inv), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Gf {
    m: u32,
    /// Field order minus one: number of non-zero elements, `2^m - 1`.
    n: usize,
    /// `exp[i] = α^i`, doubled length so `exp[log a + log b]` needs no mod.
    exp: Vec<u16>,
    /// `log[x]` for `x` in `1..=n`.
    log: Vec<u16>,
    /// `qroot[c]` = a root `y` of `y² + y = c`, or 0 when the quadratic
    /// has none (0 and 1 are roots only for `c = 0`, whose entry is 1).
    /// Built on first use, so constructing a field (every `FaultModel`
    /// builds one) does not pay for a table only the degree-2 root finder
    /// reads.
    qroot: OnceLock<Vec<u16>>,
}

impl Gf {
    /// Constructs GF(2^m).
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `3..=14`.
    pub fn new(m: u32) -> Self {
        let poly = PRIMITIVE_POLYS
            .iter()
            .find(|(mm, _)| *mm == m)
            .unwrap_or_else(|| panic!("unsupported field size m={m}"))
            .1;
        let n = (1usize << m) - 1;
        let mut exp = vec![0u16; 2 * n];
        let mut log = vec![0u16; n + 1];
        let mut x: u32 = 1;
        #[allow(clippy::needless_range_loop)] // exp and log are co-indexed
        for i in 0..n {
            exp[i] = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        for i in n..2 * n {
            exp[i] = exp[i - n];
        }
        Gf {
            m,
            n,
            exp,
            log,
            qroot: OnceLock::new(),
        }
    }

    /// The field extension degree m.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// The multiplicative group order, `2^m − 1`.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Addition in GF(2^m) is XOR.
    #[inline]
    pub fn add(&self, a: u16, b: u16) -> u16 {
        a ^ b
    }

    /// α raised to the power `i` (any integer, reduced mod the group order).
    #[inline]
    pub fn alpha_pow(&self, i: i64) -> u16 {
        let i = i.rem_euclid(self.n as i64) as usize;
        self.exp[i]
    }

    /// The discrete log of a non-zero element.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero.
    #[inline]
    pub fn log_of(&self, a: u16) -> usize {
        assert!(a != 0, "log of zero");
        self.log[a as usize] as usize
    }

    /// Multiplication.
    #[inline]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero.
    #[inline]
    pub fn inv(&self, a: u16) -> u16 {
        assert!(a != 0, "inverse of zero");
        self.exp[self.n - self.log[a as usize] as usize]
    }

    /// Division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    #[inline]
    pub fn div(&self, a: u16, b: u16) -> u16 {
        assert!(b != 0, "division by zero");
        if a == 0 {
            0
        } else {
            let la = self.log[a as usize] as usize;
            let lb = self.log[b as usize] as usize;
            self.exp[la + self.n - lb]
        }
    }

    /// `a` raised to integer power `e`.
    pub fn pow(&self, a: u16, e: i64) -> u16 {
        if a == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        let la = i64::from(self.log[a as usize]);
        self.alpha_pow(la * e)
    }

    /// A root `y` of `y² + y = c` (the other root is `y ^ 1`), or `None`
    /// when the quadratic has no root in the field.
    #[inline]
    pub(crate) fn quadratic_root(&self, c: u16) -> Option<u16> {
        let qroot = self.qroot.get_or_init(|| {
            // File every y = α^j under its image y² + y = α^{2j} + α^j.
            let mut qroot = vec![0u16; self.n + 1];
            for j in 0..self.n {
                qroot[(self.exp[2 * j] ^ self.exp[j]) as usize] = self.exp[j];
            }
            qroot
        });
        let y = qroot[c as usize];
        (y != 0).then_some(y)
    }

    /// Evaluates a polynomial with coefficients `coeffs` (index = degree)
    /// at point `x`, by Horner's rule.
    pub fn poly_eval(&self, coeffs: &[u16], x: u16) -> u16 {
        let mut acc = 0u16;
        for &c in coeffs.iter().rev() {
            acc = self.add(self.mul(acc, x), c);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_generation_is_complete() {
        for m in 3..=10 {
            let gf = Gf::new(m);
            // α generates all non-zero elements exactly once.
            let mut seen = vec![false; gf.order() + 1];
            for i in 0..gf.order() {
                let e = gf.alpha_pow(i as i64);
                assert!(e != 0);
                assert!(!seen[e as usize], "m={m}: repeated element");
                seen[e as usize] = true;
            }
        }
    }

    #[test]
    fn mul_commutative_and_associative() {
        let gf = Gf::new(8);
        for a in [0u16, 1, 2, 37, 100, 254] {
            for b in [0u16, 1, 3, 99, 200, 255] {
                assert_eq!(gf.mul(a, b), gf.mul(b, a));
                for c in [5u16, 77] {
                    assert_eq!(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributive_law() {
        let gf = Gf::new(6);
        for a in 0..=63u16 {
            for (b, c) in [(7u16, 13u16), (1, 62), (33, 33)] {
                assert_eq!(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
            }
        }
    }

    #[test]
    fn inverse_round_trips() {
        let gf = Gf::new(10);
        for a in 1..=gf.order() as u16 {
            assert_eq!(gf.mul(a, gf.inv(a)), 1, "a={a}");
            assert_eq!(gf.div(a, a), 1);
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let gf = Gf::new(5);
        let a = 9u16;
        let mut acc = 1u16;
        for e in 0..40i64 {
            assert_eq!(gf.pow(a, e), acc, "e={e}");
            acc = gf.mul(acc, a);
        }
        assert_eq!(gf.pow(0, 0), 1);
        assert_eq!(gf.pow(0, 5), 0);
    }

    #[test]
    fn negative_alpha_powers() {
        let gf = Gf::new(4);
        let a = gf.alpha_pow(3);
        let b = gf.alpha_pow(-3);
        assert_eq!(gf.mul(a, b), 1);
        assert_eq!(gf.alpha_pow(-(gf.order() as i64)), 1);
    }

    #[test]
    fn poly_eval_horner() {
        let gf = Gf::new(4);
        // p(x) = 1 + x + x^3 at x = α: α^3 + α + 1.
        let alpha = gf.alpha_pow(1);
        let expected = gf.add(gf.add(gf.pow(alpha, 3), alpha), 1);
        assert_eq!(gf.poly_eval(&[1, 1, 0, 1], alpha), expected);
        // Constant polynomial.
        assert_eq!(gf.poly_eval(&[7], 12), 7);
        // Empty polynomial is zero.
        assert_eq!(gf.poly_eval(&[], 3), 0);
    }

    #[test]
    fn quadratic_roots_are_exactly_the_images_of_y2_plus_y() {
        for m in 3..=14 {
            let gf = Gf::new(m);
            let mut image = vec![false; gf.order() + 1];
            for y in 0..=gf.order() as u16 {
                image[(gf.mul(y, y) ^ y) as usize] = true;
            }
            for c in 0..=gf.order() as u16 {
                match gf.quadratic_root(c) {
                    Some(y) => assert_eq!(gf.mul(y, y) ^ y, c, "m={m} c={c}"),
                    None => assert!(!image[c as usize], "m={m}: missed root of c={c}"),
                }
            }
            // y and y ^ 1 share an image, so exactly half the field has roots.
            let solvable = (0..=gf.order() as u16)
                .filter(|&c| gf.quadratic_root(c).is_some())
                .count();
            assert_eq!(solvable, 1 << (m - 1), "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported field size")]
    fn unsupported_m_panics() {
        let _ = Gf::new(2);
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn inv_zero_panics() {
        Gf::new(4).inv(0);
    }
}
