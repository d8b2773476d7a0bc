//! The standard family members. Each type implements [`ParamDist`]; the
//! set is assembled by [`standard_members`] into [`crate::Registry::standard`].
//!
//! Conventions:
//! * Real-valued parameters accept `Int` values too (ints embed into ℝ).
//! * `Normal⟨μ, σ²⟩` and `LogNormal⟨μ, σ²⟩` take the **variance** as the
//!   second parameter, matching the paper's moment notation (Example 3.5
//!   passes per-country `(µ, σ²)` moments straight in).
//! * Discrete members return `Int` outcomes except `Categorical`, which
//!   returns one of its listed values verbatim.
//!
//! Members are looked up by name through the registry; each one
//! validates its parameters at the call site, samples, reports densities,
//! and — when discrete — enumerates its support exactly:
//!
//! ```
//! use gdatalog_data::Value;
//! use gdatalog_dist::Registry;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let family = Registry::standard();
//!
//! // A discrete member: exact support enumeration for the chase tree.
//! let geometric = family.get("Geometric").unwrap();
//! let support = geometric.enumerate(&[Value::real(0.5)], 1e-6).unwrap();
//! assert!(support.tabulated_mass() > 1.0 - 1e-6);
//! assert_eq!(support.outcomes[0], (Value::int(0), 0.5));
//!
//! // A continuous member: sampling + log-density, no enumeration.
//! let normal = family.get("Normal").unwrap();
//! let params = [Value::real(0.0), Value::real(1.0)];
//! let mut rng = StdRng::seed_from_u64(7);
//! let draw = normal.sample(&params, &mut rng).unwrap();
//! assert!(draw.as_f64().unwrap().abs() < 6.0, "six sigma");
//! let log_pdf = normal.log_density(&params, &Value::real(0.0)).unwrap();
//! assert!((log_pdf - (-0.5 * (2.0 * std::f64::consts::PI).ln())).abs() < 1e-12);
//! assert!(normal.enumerate(&params, 1e-9).is_err(), "continuous");
//!
//! // Inadmissible parameters are runtime errors, not panics.
//! assert!(family.get("Flip").unwrap().sample(&[Value::real(1.5)], &mut rng).is_err());
//! ```

// Parameter guards are written `!(x > 0.0)` on purpose: the negation also
// rejects NaN, which `x <= 0.0` would silently admit.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use std::sync::Arc;

use gdatalog_data::{ColType, Value};
use rand::Rng;

use crate::special::{ln_factorial, ln_gamma, regularized_gamma_p, std_normal_cdf};
use crate::{DistArity, DistError, ParamDist, Support};

/// All members of the standard family, in registration order.
pub fn standard_members() -> Vec<Arc<dyn ParamDist>> {
    vec![
        Arc::new(Flip { name: "Flip" }),
        Arc::new(Flip { name: "Bernoulli" }),
        Arc::new(Categorical),
        Arc::new(UniformInt),
        Arc::new(Binomial),
        Arc::new(Geometric),
        Arc::new(Poisson),
        Arc::new(Uniform),
        Arc::new(Normal),
        Arc::new(Exponential),
        Arc::new(Gamma),
        Arc::new(Beta),
        Arc::new(LogNormal),
        Arc::new(Laplace),
    ]
}

fn real_param(
    dist: &'static str,
    params: &[Value],
    i: usize,
    what: &str,
) -> Result<f64, DistError> {
    params[i].as_f64().ok_or_else(|| DistError::BadParam {
        dist,
        msg: format!("{what} must be numeric, got {}", params[i]),
    })
}

fn int_param(dist: &'static str, params: &[Value], i: usize, what: &str) -> Result<i64, DistError> {
    params[i].as_i64().ok_or_else(|| DistError::BadParam {
        dist,
        msg: format!("{what} must be an integer, got {}", params[i]),
    })
}

fn check_arity(dist: &'static str, arity: DistArity, params: &[Value]) -> Result<(), DistError> {
    if arity.admits(params.len()) {
        Ok(())
    } else {
        Err(DistError::ParamCount {
            dist,
            expected: arity,
            found: params.len(),
        })
    }
}

fn int_outcome(dist: &'static str, outcome: &Value) -> Result<i64, DistError> {
    outcome.as_i64().ok_or_else(|| DistError::BadOutcome {
        dist,
        outcome: outcome.clone(),
    })
}

fn real_outcome(dist: &'static str, outcome: &Value) -> Result<f64, DistError> {
    outcome.as_f64().ok_or_else(|| DistError::BadOutcome {
        dist,
        outcome: outcome.clone(),
    })
}

/// Draws a standard normal deviate (Box–Muller).
fn std_normal(rng: &mut dyn Rng) -> f64 {
    let u1 = 1.0 - rng.gen_f64(); // (0, 1]
    let u2 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws Gamma(shape, 1) via Marsaglia–Tsang, boosted for shape < 1.
fn std_gamma(shape: f64, rng: &mut dyn Rng) -> f64 {
    if shape < 1.0 {
        let u: f64 = 1.0 - rng.gen_f64();
        return std_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = std_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = 1.0 - rng.gen_f64();
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

// ---------------------------------------------------------------------------
// Flip / Bernoulli
// ---------------------------------------------------------------------------

/// `Flip⟨p⟩` — Bernoulli over {0, 1}. Registered twice (as `Flip` and
/// `Bernoulli`) because Example 1.1's program G′0 turns on two *distinctly
/// named* but identically distributed members.
struct Flip {
    name: &'static str,
}

impl Flip {
    fn p(&self, params: &[Value]) -> Result<f64, DistError> {
        check_arity(self.name, self.arity(), params)?;
        let p = real_param(self.name, params, 0, "success probability")?;
        if !(0.0..=1.0).contains(&p) {
            return Err(DistError::BadParam {
                dist: self.name,
                msg: format!("success probability {p} outside [0, 1]"),
            });
        }
        Ok(p)
    }
}

impl ParamDist for Flip {
    fn name(&self) -> &str {
        self.name
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(1)
    }
    fn output_type(&self) -> ColType {
        ColType::Int
    }
    fn is_discrete(&self) -> bool {
        true
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let p = self.p(params)?;
        Ok(Value::int(i64::from(rng.gen_bool(p))))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let p = self.p(params)?;
        match int_outcome(self.name, outcome)? {
            1 => Ok(p.ln()),
            0 => Ok((1.0 - p).ln()),
            _ => Ok(f64::NEG_INFINITY),
        }
    }
    fn enumerate(&self, params: &[Value], _tol: f64) -> Result<Support, DistError> {
        let p = self.p(params)?;
        let mut outcomes = Vec::new();
        if p < 1.0 {
            outcomes.push((Value::int(0), 1.0 - p));
        }
        if p > 0.0 {
            outcomes.push((Value::int(1), p));
        }
        Ok(Support { outcomes })
    }
}

// ---------------------------------------------------------------------------
// Categorical
// ---------------------------------------------------------------------------

/// `Categorical⟨v₁, w₁, …, vₙ, wₙ⟩` — finite distribution over the listed
/// values, weights proportional to the `wᵢ`.
struct Categorical;

impl Categorical {
    fn pairs(&self, params: &[Value]) -> Result<(Vec<(Value, f64)>, f64), DistError> {
        check_arity("Categorical", self.arity(), params)?;
        let mut pairs = Vec::with_capacity(params.len() / 2);
        let mut total = 0.0;
        for chunk in params.chunks(2) {
            let w = chunk[1].as_f64().ok_or_else(|| DistError::BadParam {
                dist: "Categorical",
                msg: format!("weight must be numeric, got {}", chunk[1]),
            })?;
            if !(w >= 0.0) || !w.is_finite() {
                return Err(DistError::BadParam {
                    dist: "Categorical",
                    msg: format!("weight {w} must be finite and non-negative"),
                });
            }
            total += w;
            pairs.push((chunk[0].clone(), w));
        }
        if total <= 0.0 {
            return Err(DistError::BadParam {
                dist: "Categorical",
                msg: "total weight must be positive".to_string(),
            });
        }
        Ok((pairs, total))
    }
}

impl ParamDist for Categorical {
    fn name(&self) -> &str {
        "Categorical"
    }
    fn arity(&self) -> DistArity {
        DistArity::EvenPairs
    }
    fn output_type(&self) -> ColType {
        ColType::Any
    }
    fn is_discrete(&self) -> bool {
        true
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let (pairs, total) = self.pairs(params)?;
        let mut pick = rng.gen_f64() * total;
        for (v, w) in &pairs {
            if pick < *w {
                return Ok(v.clone());
            }
            pick -= w;
        }
        Ok(pairs.last().expect("nonempty").0.clone())
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let (pairs, total) = self.pairs(params)?;
        let mass: f64 = pairs
            .iter()
            .filter(|(v, _)| v == outcome)
            .map(|(_, w)| w)
            .sum();
        Ok((mass / total).ln())
    }
    fn enumerate(&self, params: &[Value], _tol: f64) -> Result<Support, DistError> {
        let (pairs, total) = self.pairs(params)?;
        // Aggregate duplicate values so the support is a genuine pmf.
        let mut outcomes: Vec<(Value, f64)> = Vec::new();
        for (v, w) in pairs {
            if w == 0.0 {
                continue;
            }
            match outcomes.iter_mut().find(|(u, _)| *u == v) {
                Some((_, acc)) => *acc += w / total,
                None => outcomes.push((v, w / total)),
            }
        }
        Ok(Support { outcomes })
    }
}

// ---------------------------------------------------------------------------
// UniformInt
// ---------------------------------------------------------------------------

/// `UniformInt⟨lo, hi⟩` — uniform over the integers `lo..=hi`.
struct UniformInt;

impl UniformInt {
    fn bounds(&self, params: &[Value]) -> Result<(i64, i64), DistError> {
        check_arity("UniformInt", self.arity(), params)?;
        let lo = int_param("UniformInt", params, 0, "lower bound")?;
        let hi = int_param("UniformInt", params, 1, "upper bound")?;
        if lo > hi {
            return Err(DistError::BadParam {
                dist: "UniformInt",
                msg: format!("empty range [{lo}, {hi}]"),
            });
        }
        Ok((lo, hi))
    }
}

impl ParamDist for UniformInt {
    fn name(&self) -> &str {
        "UniformInt"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(2)
    }
    fn output_type(&self) -> ColType {
        ColType::Int
    }
    fn is_discrete(&self) -> bool {
        true
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let (lo, hi) = self.bounds(params)?;
        Ok(Value::int(rng.gen_range_i64(lo, hi)))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let (lo, hi) = self.bounds(params)?;
        let k = int_outcome("UniformInt", outcome)?;
        if (lo..=hi).contains(&k) {
            Ok(-((hi - lo + 1) as f64).ln())
        } else {
            Ok(f64::NEG_INFINITY)
        }
    }
    fn enumerate(&self, params: &[Value], _tol: f64) -> Result<Support, DistError> {
        let (lo, hi) = self.bounds(params)?;
        let n = hi - lo + 1;
        if n > 1_000_000 {
            return Err(DistError::BadParam {
                dist: "UniformInt",
                msg: format!("support of {n} values is too large to enumerate"),
            });
        }
        let p = 1.0 / n as f64;
        Ok(Support {
            outcomes: (lo..=hi).map(|k| (Value::int(k), p)).collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// Binomial
// ---------------------------------------------------------------------------

/// `Binomial⟨n, p⟩` — number of successes in `n` Bernoulli(p) trials.
struct Binomial;

impl Binomial {
    fn np(&self, params: &[Value]) -> Result<(i64, f64), DistError> {
        check_arity("Binomial", self.arity(), params)?;
        let n = int_param("Binomial", params, 0, "trial count")?;
        let p = real_param("Binomial", params, 1, "success probability")?;
        if n < 0 {
            return Err(DistError::BadParam {
                dist: "Binomial",
                msg: format!("trial count {n} must be non-negative"),
            });
        }
        if !(0.0..=1.0).contains(&p) {
            return Err(DistError::BadParam {
                dist: "Binomial",
                msg: format!("success probability {p} outside [0, 1]"),
            });
        }
        Ok((n, p))
    }

    fn log_pmf(n: i64, p: f64, k: i64) -> f64 {
        if k < 0 || k > n {
            return f64::NEG_INFINITY;
        }
        let (n_u, k_u) = (n as u64, k as u64);
        let ln_choose = ln_factorial(n_u) - ln_factorial(k_u) - ln_factorial(n_u - k_u);
        let term_p = if k == 0 { 0.0 } else { k as f64 * p.ln() };
        let term_q = if k == n {
            0.0
        } else {
            (n - k) as f64 * (1.0 - p).ln()
        };
        ln_choose + term_p + term_q
    }
}

impl ParamDist for Binomial {
    fn name(&self) -> &str {
        "Binomial"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(2)
    }
    fn output_type(&self) -> ColType {
        ColType::Int
    }
    fn is_discrete(&self) -> bool {
        true
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let (n, p) = self.np(params)?;
        let mut k = 0i64;
        for _ in 0..n {
            if rng.gen_bool(p) {
                k += 1;
            }
        }
        Ok(Value::int(k))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let (n, p) = self.np(params)?;
        Ok(Self::log_pmf(n, p, int_outcome("Binomial", outcome)?))
    }
    fn enumerate(&self, params: &[Value], _tol: f64) -> Result<Support, DistError> {
        let (n, p) = self.np(params)?;
        Ok(Support {
            outcomes: (0..=n)
                .map(|k| (Value::int(k), Self::log_pmf(n, p, k).exp()))
                .filter(|(_, q)| *q > 0.0)
                .collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// Geometric
// ---------------------------------------------------------------------------

/// `Geometric⟨p⟩` — number of failures before the first success:
/// `P(k) = p (1-p)^k`, `k ≥ 0`.
struct Geometric;

impl Geometric {
    fn p(&self, params: &[Value]) -> Result<f64, DistError> {
        check_arity("Geometric", self.arity(), params)?;
        let p = real_param("Geometric", params, 0, "success probability")?;
        if !(p > 0.0 && p <= 1.0) {
            return Err(DistError::BadParam {
                dist: "Geometric",
                msg: format!("success probability {p} outside (0, 1]"),
            });
        }
        Ok(p)
    }
}

impl ParamDist for Geometric {
    fn name(&self) -> &str {
        "Geometric"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(1)
    }
    fn output_type(&self) -> ColType {
        ColType::Int
    }
    fn is_discrete(&self) -> bool {
        true
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let p = self.p(params)?;
        if p >= 1.0 {
            return Ok(Value::int(0));
        }
        // Inversion: k = ⌊ln U / ln(1-p)⌋.
        let u = 1.0 - rng.gen_f64();
        Ok(Value::int((u.ln() / (1.0 - p).ln()).floor() as i64))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let p = self.p(params)?;
        let k = int_outcome("Geometric", outcome)?;
        if k < 0 {
            return Ok(f64::NEG_INFINITY);
        }
        // Guard the k = 0 term: at p = 1 the naive `k · ln(1−p)` is
        // `0 · (−∞)` = NaN, but P(0) = p exactly.
        let tail = if k == 0 {
            0.0
        } else {
            k as f64 * (1.0 - p).ln()
        };
        Ok(p.ln() + tail)
    }
    fn enumerate(&self, params: &[Value], tol: f64) -> Result<Support, DistError> {
        let p = self.p(params)?;
        let mut outcomes = Vec::new();
        let mut k = 0i64;
        let mut pk = p; // P(k)
        let mut tail = 1.0;
        // Tail after tabulating 0..k is (1-p)^{k+1}; stop once ≤ tol.
        while tail > tol && k < 100_000 {
            outcomes.push((Value::int(k), pk));
            tail -= pk;
            pk *= 1.0 - p;
            k += 1;
            if pk == 0.0 {
                break;
            }
        }
        Ok(Support { outcomes })
    }
}

// ---------------------------------------------------------------------------
// Poisson
// ---------------------------------------------------------------------------

/// `Poisson⟨λ⟩`.
struct Poisson;

impl Poisson {
    fn lambda(&self, params: &[Value]) -> Result<f64, DistError> {
        check_arity("Poisson", self.arity(), params)?;
        let l = real_param("Poisson", params, 0, "rate λ")?;
        if !(l > 0.0) || !l.is_finite() {
            return Err(DistError::BadParam {
                dist: "Poisson",
                msg: format!("rate λ = {l} must be positive and finite"),
            });
        }
        Ok(l)
    }

    fn log_pmf(lambda: f64, k: i64) -> f64 {
        if k < 0 {
            return f64::NEG_INFINITY;
        }
        k as f64 * lambda.ln() - lambda - ln_factorial(k as u64)
    }
}

impl ParamDist for Poisson {
    fn name(&self) -> &str {
        "Poisson"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(1)
    }
    fn output_type(&self) -> ColType {
        ColType::Int
    }
    fn is_discrete(&self) -> bool {
        true
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let lambda = self.lambda(params)?;
        if lambda < 500.0 {
            // Knuth's product-of-uniforms method; exp(-500) is still a
            // normal double, so the loop terminates correctly.
            let threshold = (-lambda).exp();
            let mut k = -1i64;
            let mut prod = 1.0;
            loop {
                k += 1;
                prod *= 1.0 - rng.gen_f64();
                if prod <= threshold {
                    return Ok(Value::int(k));
                }
            }
        }
        // Very large λ: split recursively; Poisson(a + b) = P(a) + P(b).
        let half = Value::real(lambda / 2.0);
        let a = self.sample(std::slice::from_ref(&half), rng)?;
        let b = self.sample(std::slice::from_ref(&half), rng)?;
        Ok(Value::int(
            a.as_i64().expect("int outcome") + b.as_i64().expect("int outcome"),
        ))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let lambda = self.lambda(params)?;
        Ok(Self::log_pmf(lambda, int_outcome("Poisson", outcome)?))
    }
    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        let lambda = self.lambda(params)?;
        let k = x.floor();
        if k < 0.0 {
            return Ok(0.0);
        }
        Ok(1.0 - regularized_gamma_p(k + 1.0, lambda))
    }
    fn enumerate(&self, params: &[Value], tol: f64) -> Result<Support, DistError> {
        let lambda = self.lambda(params)?;
        let mut outcomes = Vec::new();
        let mut k = 0i64;
        let mut tabulated = 0.0;
        while tabulated < 1.0 - tol && k < 1_000_000 {
            let q = Self::log_pmf(lambda, k).exp();
            if q > 0.0 {
                outcomes.push((Value::int(k), q));
            }
            tabulated += q;
            k += 1;
            // Far past the mode with vanishing mass: stop.
            if k as f64 > lambda + 10.0 && q < 1e-300 {
                break;
            }
        }
        Ok(Support { outcomes })
    }
}

// ---------------------------------------------------------------------------
// Continuous members
// ---------------------------------------------------------------------------

/// `Uniform⟨a, b⟩` — uniform on `[a, b)`.
struct Uniform;

impl Uniform {
    fn bounds(&self, params: &[Value]) -> Result<(f64, f64), DistError> {
        check_arity("Uniform", self.arity(), params)?;
        let a = real_param("Uniform", params, 0, "lower bound")?;
        let b = real_param("Uniform", params, 1, "upper bound")?;
        if !(a < b) {
            return Err(DistError::BadParam {
                dist: "Uniform",
                msg: format!("empty interval [{a}, {b})"),
            });
        }
        Ok((a, b))
    }
}

impl ParamDist for Uniform {
    fn name(&self) -> &str {
        "Uniform"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(2)
    }
    fn output_type(&self) -> ColType {
        ColType::Real
    }
    fn is_discrete(&self) -> bool {
        false
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let (a, b) = self.bounds(params)?;
        Ok(Value::real(a + rng.gen_f64() * (b - a)))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let (a, b) = self.bounds(params)?;
        let x = real_outcome("Uniform", outcome)?;
        if (a..b).contains(&x) {
            Ok(-(b - a).ln())
        } else {
            Ok(f64::NEG_INFINITY)
        }
    }
    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        let (a, b) = self.bounds(params)?;
        Ok(((x - a) / (b - a)).clamp(0.0, 1.0))
    }
}

/// `Normal⟨μ, σ²⟩` — second parameter is the **variance**.
struct Normal;

impl Normal {
    fn moments(&self, params: &[Value]) -> Result<(f64, f64), DistError> {
        check_arity("Normal", self.arity(), params)?;
        let mu = real_param("Normal", params, 0, "mean")?;
        let var = real_param("Normal", params, 1, "variance")?;
        if !(var > 0.0) || !var.is_finite() {
            return Err(DistError::BadParam {
                dist: "Normal",
                msg: format!("variance {var} must be positive and finite"),
            });
        }
        Ok((mu, var))
    }
}

impl ParamDist for Normal {
    fn name(&self) -> &str {
        "Normal"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(2)
    }
    fn output_type(&self) -> ColType {
        ColType::Real
    }
    fn is_discrete(&self) -> bool {
        false
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let (mu, var) = self.moments(params)?;
        Ok(Value::real(mu + var.sqrt() * std_normal(rng)))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let (mu, var) = self.moments(params)?;
        let x = real_outcome("Normal", outcome)?;
        let z = (x - mu) * (x - mu) / var;
        Ok(-0.5 * (z + var.ln() + (2.0 * std::f64::consts::PI).ln()))
    }
    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        let (mu, var) = self.moments(params)?;
        Ok(std_normal_cdf((x - mu) / var.sqrt()))
    }
}

/// `Exponential⟨λ⟩` — rate parameterization.
struct Exponential;

impl Exponential {
    fn rate(&self, params: &[Value]) -> Result<f64, DistError> {
        check_arity("Exponential", self.arity(), params)?;
        let l = real_param("Exponential", params, 0, "rate λ")?;
        if !(l > 0.0) || !l.is_finite() {
            return Err(DistError::BadParam {
                dist: "Exponential",
                msg: format!("rate λ = {l} must be positive and finite"),
            });
        }
        Ok(l)
    }
}

impl ParamDist for Exponential {
    fn name(&self) -> &str {
        "Exponential"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(1)
    }
    fn output_type(&self) -> ColType {
        ColType::Real
    }
    fn is_discrete(&self) -> bool {
        false
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let l = self.rate(params)?;
        Ok(Value::real(-(1.0 - rng.gen_f64()).ln() / l))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let l = self.rate(params)?;
        let x = real_outcome("Exponential", outcome)?;
        if x < 0.0 {
            Ok(f64::NEG_INFINITY)
        } else {
            Ok(l.ln() - l * x)
        }
    }
    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        let l = self.rate(params)?;
        Ok(if x <= 0.0 { 0.0 } else { 1.0 - (-l * x).exp() })
    }
}

/// `Gamma⟨k, θ⟩` — shape/scale parameterization.
struct Gamma;

impl Gamma {
    fn shape_scale(&self, params: &[Value]) -> Result<(f64, f64), DistError> {
        check_arity("Gamma", self.arity(), params)?;
        let k = real_param("Gamma", params, 0, "shape")?;
        let theta = real_param("Gamma", params, 1, "scale")?;
        if !(k > 0.0 && theta > 0.0) {
            return Err(DistError::BadParam {
                dist: "Gamma",
                msg: format!("shape {k} and scale {theta} must be positive"),
            });
        }
        Ok((k, theta))
    }
}

impl ParamDist for Gamma {
    fn name(&self) -> &str {
        "Gamma"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(2)
    }
    fn output_type(&self) -> ColType {
        ColType::Real
    }
    fn is_discrete(&self) -> bool {
        false
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let (k, theta) = self.shape_scale(params)?;
        Ok(Value::real(std_gamma(k, rng) * theta))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let (k, theta) = self.shape_scale(params)?;
        let x = real_outcome("Gamma", outcome)?;
        if x <= 0.0 {
            return Ok(f64::NEG_INFINITY);
        }
        Ok((k - 1.0) * x.ln() - x / theta - ln_gamma(k) - k * theta.ln())
    }
    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        let (k, theta) = self.shape_scale(params)?;
        Ok(if x <= 0.0 {
            0.0
        } else {
            regularized_gamma_p(k, x / theta)
        })
    }
}

/// `Beta⟨α, β⟩`.
struct Beta;

impl Beta {
    fn ab(&self, params: &[Value]) -> Result<(f64, f64), DistError> {
        check_arity("Beta", self.arity(), params)?;
        let a = real_param("Beta", params, 0, "α")?;
        let b = real_param("Beta", params, 1, "β")?;
        if !(a > 0.0 && b > 0.0) {
            return Err(DistError::BadParam {
                dist: "Beta",
                msg: format!("α = {a} and β = {b} must be positive"),
            });
        }
        Ok((a, b))
    }
}

impl ParamDist for Beta {
    fn name(&self) -> &str {
        "Beta"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(2)
    }
    fn output_type(&self) -> ColType {
        ColType::Real
    }
    fn is_discrete(&self) -> bool {
        false
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let (a, b) = self.ab(params)?;
        let x = std_gamma(a, rng);
        let y = std_gamma(b, rng);
        Ok(Value::real(x / (x + y)))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let (a, b) = self.ab(params)?;
        let x = real_outcome("Beta", outcome)?;
        if !(0.0..=1.0).contains(&x) {
            return Ok(f64::NEG_INFINITY);
        }
        let ln_beta = ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b);
        Ok((a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln() - ln_beta)
    }
    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        let (a, b) = self.ab(params)?;
        Ok(crate::special::regularized_beta(a, b, x))
    }
}

/// `LogNormal⟨μ, σ²⟩` — `exp` of a `Normal⟨μ, σ²⟩` draw (variance of the
/// underlying normal, mirroring [`Normal`]).
struct LogNormal;

impl ParamDist for LogNormal {
    fn name(&self) -> &str {
        "LogNormal"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(2)
    }
    fn output_type(&self) -> ColType {
        ColType::Real
    }
    fn is_discrete(&self) -> bool {
        false
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let (mu, var) = Normal.moments(params)?;
        Ok(Value::real((mu + var.sqrt() * std_normal(rng)).exp()))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let (mu, var) = Normal.moments(params)?;
        let x = real_outcome("LogNormal", outcome)?;
        if x <= 0.0 {
            return Ok(f64::NEG_INFINITY);
        }
        let z = (x.ln() - mu) * (x.ln() - mu) / var;
        Ok(-0.5 * (z + var.ln() + (2.0 * std::f64::consts::PI).ln()) - x.ln())
    }
    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        let (mu, var) = Normal.moments(params)?;
        Ok(if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - mu) / var.sqrt())
        })
    }
}

/// `Laplace⟨μ, b⟩` — location/scale.
struct Laplace;

impl Laplace {
    fn loc_scale(&self, params: &[Value]) -> Result<(f64, f64), DistError> {
        check_arity("Laplace", self.arity(), params)?;
        let mu = real_param("Laplace", params, 0, "location")?;
        let b = real_param("Laplace", params, 1, "scale")?;
        if !(b > 0.0) || !b.is_finite() {
            return Err(DistError::BadParam {
                dist: "Laplace",
                msg: format!("scale {b} must be positive and finite"),
            });
        }
        Ok((mu, b))
    }
}

impl ParamDist for Laplace {
    fn name(&self) -> &str {
        "Laplace"
    }
    fn arity(&self) -> DistArity {
        DistArity::Exact(2)
    }
    fn output_type(&self) -> ColType {
        ColType::Real
    }
    fn is_discrete(&self) -> bool {
        false
    }
    fn sample(&self, params: &[Value], rng: &mut dyn Rng) -> Result<Value, DistError> {
        let (mu, b) = self.loc_scale(params)?;
        // Difference of two Exp(1) draws is Laplace(0, 1); unlike the
        // inverse-CDF form this stays finite for every rng output.
        let e1 = -(1.0 - rng.gen_f64()).ln();
        let e2 = -(1.0 - rng.gen_f64()).ln();
        Ok(Value::real(mu + b * (e1 - e2)))
    }
    fn log_density(&self, params: &[Value], outcome: &Value) -> Result<f64, DistError> {
        let (mu, b) = self.loc_scale(params)?;
        let x = real_outcome("Laplace", outcome)?;
        Ok(-(x - mu).abs() / b - (2.0 * b).ln())
    }
    fn cdf(&self, params: &[Value], x: f64) -> Result<f64, DistError> {
        let (mu, b) = self.loc_scale(params)?;
        Ok(if x < mu {
            0.5 * ((x - mu) / b).exp()
        } else {
            1.0 - 0.5 * (-(x - mu) / b).exp()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_f64s(name: &str, params: &[Value], n: usize) -> Vec<f64> {
        let reg = Registry::standard();
        let d = reg.get(name).expect("registered");
        let mut rng = StdRng::seed_from_u64(12);
        (0..n)
            .map(|_| {
                d.sample(params, &mut rng)
                    .expect("valid params")
                    .as_f64()
                    .expect("numeric outcome")
            })
            .collect()
    }

    fn mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let m = xs.iter().sum::<f64>() / n;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
        (m, v)
    }

    #[test]
    fn standard_registry_contains_the_family() {
        let reg = Registry::standard();
        for name in [
            "Flip",
            "Bernoulli",
            "Categorical",
            "UniformInt",
            "Binomial",
            "Geometric",
            "Poisson",
            "Uniform",
            "Normal",
            "Exponential",
            "Gamma",
            "Beta",
            "LogNormal",
            "Laplace",
        ] {
            assert!(reg.get(name).is_some(), "missing {name}");
        }
        assert!(reg.get("Zorp").is_none());
    }

    #[test]
    fn flip_frequency_and_density() {
        let xs = sample_f64s("Flip", &[Value::real(0.3)], 20_000);
        let (m, _) = mean_var(&xs);
        assert!((m - 0.3).abs() < 0.02, "mean {m}");
        let reg = Registry::standard();
        let flip = reg.get("Flip").expect("registered");
        let ld = flip
            .log_density(&[Value::real(0.5)], &Value::int(1))
            .expect("ok");
        assert!((ld - 0.5f64.ln()).abs() < 1e-12);
        assert!(flip
            .sample(&[Value::real(1.5)], &mut StdRng::seed_from_u64(0))
            .is_err());
        // Degenerate edges are total.
        assert_eq!(
            flip.sample(&[Value::real(1.0)], &mut StdRng::seed_from_u64(0))
                .expect("ok"),
            Value::int(1)
        );
    }

    #[test]
    fn flip_enumeration_is_exact() {
        let reg = Registry::standard();
        let flip = reg.get("Flip").expect("registered");
        let s = flip.enumerate(&[Value::real(0.25)], 1e-9).expect("ok");
        assert_eq!(s.outcomes.len(), 2);
        assert!((s.tabulated_mass() - 1.0).abs() < 1e-12);
        let one = flip.enumerate(&[Value::real(1.0)], 1e-9).expect("ok");
        assert_eq!(one.outcomes, vec![(Value::int(1), 1.0)]);
    }

    #[test]
    fn normal_takes_variance() {
        let xs = sample_f64s("Normal", &[Value::real(10.0), Value::real(49.0)], 20_000);
        let (m, v) = mean_var(&xs);
        assert!((m - 10.0).abs() < 0.2, "mean {m}");
        assert!((v - 49.0).abs() < 2.0, "var {v}");
        let reg = Registry::standard();
        let n = reg.get("Normal").expect("registered");
        // CDF at the mean is 1/2; density integrates the right scale.
        assert!(
            (n.cdf(&[Value::real(10.0), Value::real(49.0)], 10.0)
                .expect("ok")
                - 0.5)
                .abs()
                < 1e-9
        );
        assert!(n
            .log_density(&[Value::real(0.0), Value::real(-1.0)], &Value::real(0.0))
            .is_err());
    }

    #[test]
    fn geometric_enumeration_truncates_at_tol() {
        let reg = Registry::standard();
        let g = reg.get("Geometric").expect("registered");
        let s = g.enumerate(&[Value::real(0.5)], 1e-4).expect("ok");
        let mass = s.tabulated_mass();
        assert!(mass < 1.0, "must truncate strictly");
        assert!(1.0 - mass <= 1e-4 + 1e-12, "tail {}", 1.0 - mass);
        // pmf values are p(1-p)^k.
        assert!((s.outcomes[0].1 - 0.5).abs() < 1e-12);
        assert!((s.outcomes[2].1 - 0.125).abs() < 1e-12);
    }

    #[test]
    fn poisson_moments_and_enumeration() {
        for lambda in [3.0, 80.0] {
            let xs = sample_f64s("Poisson", &[Value::real(lambda)], 20_000);
            let (m, v) = mean_var(&xs);
            assert!(
                (m - lambda).abs() < 0.05 * lambda + 0.1,
                "λ={lambda} mean {m}"
            );
            assert!(
                (v - lambda).abs() < 0.1 * lambda + 0.2,
                "λ={lambda} var {v}"
            );
        }
        let reg = Registry::standard();
        let p = reg.get("Poisson").expect("registered");
        let s = p.enumerate(&[Value::real(3.0)], 1e-9).expect("ok");
        assert!(1.0 - s.tabulated_mass() <= 1e-9 + 1e-12);
        // P(0) = e^{-3}.
        assert!((s.outcomes[0].1 - (-3.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn continuous_members_match_their_moments() {
        let (m, v) = mean_var(&sample_f64s(
            "Uniform",
            &[Value::real(2.0), Value::real(6.0)],
            20_000,
        ));
        assert!(
            (m - 4.0).abs() < 0.05 && (v - 16.0 / 12.0).abs() < 0.1,
            "U: {m} {v}"
        );
        let (m, v) = mean_var(&sample_f64s("Exponential", &[Value::real(1.5)], 20_000));
        assert!(
            (m - 1.0 / 1.5).abs() < 0.02 && (v - 1.0 / 2.25).abs() < 0.05,
            "E: {m} {v}"
        );
        let (m, v) = mean_var(&sample_f64s(
            "Gamma",
            &[Value::real(3.0), Value::real(2.0)],
            20_000,
        ));
        assert!(
            (m - 6.0).abs() < 0.15 && (v - 12.0).abs() < 1.0,
            "G: {m} {v}"
        );
        let (m, _) = mean_var(&sample_f64s(
            "Gamma",
            &[Value::real(0.4), Value::real(1.0)],
            20_000,
        ));
        assert!((m - 0.4).abs() < 0.03, "G(k<1): {m}");
        let (m, _) = mean_var(&sample_f64s(
            "Beta",
            &[Value::real(2.0), Value::real(5.0)],
            20_000,
        ));
        assert!((m - 2.0 / 7.0).abs() < 0.01, "B: {m}");
        let (m, v) = mean_var(&sample_f64s(
            "Laplace",
            &[Value::real(1.0), Value::real(2.0)],
            20_000,
        ));
        assert!((m - 1.0).abs() < 0.1 && (v - 8.0).abs() < 0.6, "L: {m} {v}");
    }

    #[test]
    fn categorical_samples_and_enumerates_by_weight() {
        let params = [
            Value::sym("a"),
            Value::real(1.0),
            Value::sym("b"),
            Value::real(3.0),
        ];
        let reg = Registry::standard();
        let c = reg.get("Categorical").expect("registered");
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000)
            .filter(|_| c.sample(&params, &mut rng).expect("ok") == Value::sym("b"))
            .count();
        assert!((hits as f64 / 10_000.0 - 0.75).abs() < 0.02);
        let s = c.enumerate(&params, 1e-9).expect("ok");
        assert_eq!(s.outcomes.len(), 2);
        assert!((s.tabulated_mass() - 1.0).abs() < 1e-12);
        let ld = c.log_density(&params, &Value::sym("a")).expect("ok");
        assert!((ld - 0.25f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn uniform_int_and_binomial_supports() {
        let reg = Registry::standard();
        let u = reg.get("UniformInt").expect("registered");
        let s = u
            .enumerate(&[Value::int(0), Value::int(9)], 1e-9)
            .expect("ok");
        assert_eq!(s.outcomes.len(), 10);
        assert!((s.tabulated_mass() - 1.0).abs() < 1e-12);
        let b = reg.get("Binomial").expect("registered");
        let s = b
            .enumerate(&[Value::int(40), Value::real(0.3)], 1e-9)
            .expect("ok");
        assert!((s.tabulated_mass() - 1.0).abs() < 1e-9);
        let xs = sample_f64s("Binomial", &[Value::int(40), Value::real(0.3)], 10_000);
        let (m, _) = mean_var(&xs);
        assert!((m - 12.0).abs() < 0.2, "mean {m}");
    }

    #[test]
    fn continuous_members_refuse_enumeration() {
        let reg = Registry::standard();
        for name in [
            "Uniform",
            "Normal",
            "Exponential",
            "Gamma",
            "Beta",
            "LogNormal",
            "Laplace",
        ] {
            let d = reg.get(name).expect("registered");
            assert!(!d.is_discrete());
            assert!(
                d.enumerate(&[Value::real(1.0), Value::real(1.0)], 1e-9)
                    .is_err(),
                "{name} must refuse enumeration"
            );
        }
    }

    #[test]
    fn batched_kernels_are_bit_identical_to_scalar() {
        // Every member batches through the trait's default scalar loop.
        let reg = Registry::standard();
        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("Flip", vec![Value::real(0.37)]),
            ("Bernoulli", vec![Value::real(0.8)]),
            ("UniformInt", vec![Value::int(-3), Value::int(11)]),
            ("Uniform", vec![Value::real(2.0), Value::real(6.5)]),
            ("Normal", vec![Value::real(1.5), Value::real(4.0)]),
            ("Exponential", vec![Value::real(0.7)]),
            ("Geometric", vec![Value::real(0.25)]),
            ("Gamma", vec![Value::real(2.0), Value::real(1.5)]),
        ];
        for (name, params) in cases {
            let d = reg.get(name).expect("registered");
            // Independent per-lane streams, exactly as the MC engine seeds.
            let mut scalar_rngs: Vec<StdRng> =
                (0..17).map(|i| StdRng::seed_from_u64(1000 + i)).collect();
            let mut batch_rngs = scalar_rngs.clone();
            let scalar: Vec<Value> = scalar_rngs
                .iter_mut()
                .map(|rng| d.sample(&params, rng).expect("valid params"))
                .collect();
            let mut batched = Vec::new();
            d.sample_batch(&params, &mut batch_rngs, &mut batched)
                .expect("valid params");
            assert_eq!(scalar, batched, "{name} sample_batch diverged");
            // The lanes' rng states must advance identically too.
            for (a, b) in scalar_rngs.iter_mut().zip(batch_rngs.iter_mut()) {
                assert_eq!(a.next_u64(), b.next_u64(), "{name} rng state diverged");
            }
            let scalar_ld: Vec<f64> = batched
                .iter()
                .map(|o| d.log_density(&params, o).expect("ok"))
                .collect();
            let mut batched_ld = Vec::new();
            d.log_density_batch(&params, &batched, &mut batched_ld)
                .expect("ok");
            let same = scalar_ld
                .iter()
                .zip(&batched_ld)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{name} log_density_batch diverged");
        }
    }

    #[test]
    fn batched_kernels_report_parameter_errors() {
        let reg = Registry::standard();
        let flip = reg.get("Flip").expect("registered");
        let mut rngs = vec![StdRng::seed_from_u64(0)];
        let mut out = Vec::new();
        assert!(flip
            .sample_batch(&[Value::real(1.5)], &mut rngs, &mut out)
            .is_err());
        let mut ld = Vec::new();
        assert!(flip
            .log_density_batch(&[Value::real(1.5)], &[Value::int(1)], &mut ld)
            .is_err());
        // A mistyped outcome mid-batch also surfaces.
        assert!(flip
            .log_density_batch(
                &[Value::real(0.5)],
                &[Value::int(1), Value::sym("x")],
                &mut ld
            )
            .is_err());
    }

    #[test]
    fn normal_log_density_matches_closed_form() {
        let reg = Registry::standard();
        let n = reg.get("Normal").expect("registered");
        let ld = n
            .log_density(&[Value::real(0.0), Value::real(1.0)], &Value::real(0.0))
            .expect("ok");
        assert!((ld + 0.5 * (2.0 * std::f64::consts::PI).ln()).abs() < 1e-12);
        let d = n
            .density(&[Value::real(0.0), Value::real(1.0)], &Value::real(0.7))
            .expect("ok");
        assert!((d - crate::special::std_normal_pdf(0.7)).abs() < 1e-12);
    }
}
