//! Scalar expressions.
//!
//! Control replication replicates scalar control state across shards
//! (§4.4): "scalar variables are normally replicated... this ensures
//! that control flow constructs behave identically on all shards". The
//! expression language below is deliberately side-effect free so that
//! replicated evaluation is trivially consistent.

use std::fmt;

/// Identifier of a scalar variable in a program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScalarId(pub u32);

impl fmt::Debug for ScalarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Comparison operators (evaluate to 1.0 / 0.0).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// A side-effect-free scalar expression over f64 values.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarExpr {
    /// Literal constant.
    Const(f64),
    /// Variable reference.
    Var(ScalarId),
    /// Binary arithmetic.
    Bin(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Comparison producing 1.0 (true) or 0.0 (false).
    Cmp(CmpOp, Box<ScalarExpr>, Box<ScalarExpr>),
}

impl ScalarExpr {
    /// Evaluates against an environment indexed by [`ScalarId`].
    pub fn eval(&self, env: &[f64]) -> f64 {
        match self {
            ScalarExpr::Const(c) => *c,
            ScalarExpr::Var(v) => env[v.0 as usize],
            ScalarExpr::Bin(op, a, b) => {
                let (a, b) = (a.eval(env), b.eval(env));
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                }
            }
            ScalarExpr::Cmp(op, a, b) => {
                let (a, b) = (a.eval(env), b.eval(env));
                let r = match op {
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                };
                f64::from(r)
            }
        }
    }

    /// The set of variables the expression reads.
    pub(crate) fn vars(&self, out: &mut Vec<ScalarId>) {
        match self {
            ScalarExpr::Const(_) => {}
            ScalarExpr::Var(v) => out.push(*v),
            ScalarExpr::Bin(_, a, b) | ScalarExpr::Cmp(_, a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }

    /// Convenience: `self + rhs`.
    #[allow(clippy::should_implement_trait)] // DSL constructor, not arithmetic on Self
    pub fn add(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// Convenience: `self * rhs`.
    #[allow(clippy::should_implement_trait)] // DSL constructor, not arithmetic on Self
    pub fn mul(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// Convenience: `self < rhs`.
    pub fn lt(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }
}

/// Shorthand for a constant expression.
pub fn c(v: f64) -> ScalarExpr {
    ScalarExpr::Const(v)
}

/// Shorthand for a variable expression.
pub fn var(v: ScalarId) -> ScalarExpr {
    ScalarExpr::Var(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arithmetic() {
        let env = [2.0, 3.0];
        let e = var(ScalarId(0)).add(var(ScalarId(1)).mul(c(10.0)));
        assert_eq!(e.eval(&env), 32.0);
        let m = ScalarExpr::Bin(BinOp::Min, Box::new(c(4.0)), Box::new(c(7.0)));
        assert_eq!(m.eval(&[]), 4.0);
        let d = ScalarExpr::Bin(BinOp::Div, Box::new(c(1.0)), Box::new(c(4.0)));
        assert_eq!(d.eval(&[]), 0.25);
        let s = ScalarExpr::Bin(BinOp::Sub, Box::new(c(1.0)), Box::new(c(4.0)));
        assert_eq!(s.eval(&[]), -3.0);
        let mx = ScalarExpr::Bin(BinOp::Max, Box::new(c(1.0)), Box::new(c(4.0)));
        assert_eq!(mx.eval(&[]), 4.0);
    }

    #[test]
    fn eval_comparisons() {
        assert_eq!(c(1.0).lt(c(2.0)).eval(&[]), 1.0);
        assert_eq!(c(2.0).lt(c(2.0)).eval(&[]), 0.0);
        for (op, expect) in [
            (CmpOp::Le, 1.0),
            (CmpOp::Ge, 1.0),
            (CmpOp::Eq, 1.0),
            (CmpOp::Ne, 0.0),
            (CmpOp::Gt, 0.0),
            (CmpOp::Lt, 0.0),
        ] {
            let e = ScalarExpr::Cmp(op, Box::new(c(5.0)), Box::new(c(5.0)));
            assert_eq!(e.eval(&[]), expect, "{op:?}");
        }
    }

    #[test]
    fn collects_vars() {
        let e = var(ScalarId(3)).add(var(ScalarId(1))).mul(c(2.0));
        let mut vs = Vec::new();
        e.vars(&mut vs);
        assert_eq!(vs, vec![ScalarId(3), ScalarId(1)]);
    }
}
