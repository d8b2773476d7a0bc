//! Input generators. Every generator is a pure function of its arguments
//! and the seed: the same seed gives byte-identical inputs. Programs are
//! fixed texts; the seed only shapes the data they receive.

use std::fmt::Write;

use crate::rng::SplitMix;

// ---------------------------------------------------------------------------
// heights (Ex. 3.5)
// ---------------------------------------------------------------------------

/// Ex. 3.5: per-country normal heights, people as input facts.
pub const HEIGHTS_PROGRAM: &str = "rel PCountry(symbol, symbol) input.
rel CMoments(symbol, real, real) input.
CMoments(nl, 183.8, 49.0).
CMoments(pe, 165.2, 36.0).
PHeight(P, Normal<Mu, S2>) :- PCountry(P, C), CMoments(C, Mu, S2).
";

/// The two countries' moments `(mean, variance)`, as in the program.
pub const HEIGHT_MOMENTS: [(f64, f64); 2] = [(183.8, 49.0), (165.2, 36.0)];

/// `people` `PCountry` facts, half per country, with seed-chosen names in
/// seed-chosen order.
pub fn heights_input(people: usize, seed: u64) -> String {
    let mut rng = SplitMix::new(seed ^ 0x4845_4947_4854);
    let mut ids: Vec<usize> = (0..people * 8).collect();
    rng.shuffle(&mut ids);
    let mut rows: Vec<String> = ids[..people]
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let country = if i < people / 2 { "nl" } else { "pe" };
            format!("PCountry(p{id:05}, {country}).")
        })
        .collect();
    rng.shuffle(&mut rows);
    rows.join("\n") + "\n"
}

// ---------------------------------------------------------------------------
// diagnosis (the alarm network of examples/posterior_diagnosis.rs)
// ---------------------------------------------------------------------------

/// The alarm network with houses as input and a tabulated seismometer.
pub const DIAGNOSIS_PROGRAM: &str = "rel House(symbol) input.
Quake(Flip<0.05>) :- true.
Burglary(H, Flip<0.1>) :- House(H).
Trig(H, Flip<0.6>) :- House(H), Quake(1).
Trig(H, Flip<0.9>) :- Burglary(H, 1).
Alarm(H) :- Trig(H, 1).
SeismoMean(1, 3.0).
SeismoMean(0, 0.0).
";

pub const DIAGNOSIS_HOUSES: &str = "House(h1). House(h2). House(h3).\n";

/// The seismometer reading: 2.4 shifted by a seed-drawn amount in
/// `[-0.1, 0.1)`, so every seed poses a slightly different posterior of
/// the same difficulty.
pub fn diagnosis_reading(seed: u64) -> f64 {
    let mut rng = SplitMix::new(seed ^ 0x5345_4953_4d4f);
    2.4 + (rng.next_f64() - 0.5) * 0.2
}

/// Hard evidence on two alarms plus the soft seismometer reading.
pub fn diagnosis_given(reading: f64) -> String {
    format!("Alarm(h1). Alarm(h2). Normal<M, 1.0> == {reading:?} :- Quake(Q), SeismoMean(Q, M).")
}

/// Closed-form posterior `P(Quake = 1 | evidence)` of the network with
/// three houses, alarms observed at h1 and h2, and the reading: each
/// house's alarm is a noisy-OR of its two triggers.
pub fn diagnosis_posterior_quake(reading: f64) -> f64 {
    let p_alarm = |q: f64, b: f64| 1.0 - (1.0 - 0.6 * q) * (1.0 - 0.9 * b);
    let per_house = |q: f64| 0.1 * p_alarm(q, 1.0) + 0.9 * p_alarm(q, 0.0);
    let normal = |m: f64| (-(reading - m) * (reading - m) / 2.0).exp();
    let joint = |q: f64, prior: f64| prior * per_house(q).powi(2) * normal(3.0 * q);
    let with = joint(1.0, 0.05);
    let without = joint(0.0, 0.95);
    with / (with + without)
}

// ---------------------------------------------------------------------------
// http-mix
// ---------------------------------------------------------------------------

/// The served model: the alarm network plus a detector library whose
/// detectors beep on their house's alarm or at their own false-alarm
/// rate.
pub const SERVE_PROGRAM: &str = "rel House(symbol) input.
rel Detector(symbol, symbol, real) input.
Quake(Flip<0.05>) :- true.
Burglary(H, Flip<0.1>) :- House(H).
Trig(H, Flip<0.6>) :- House(H), Quake(1).
Trig(H, Flip<0.9>) :- Burglary(H, 1).
Alarm(H) :- Trig(H, 1).
Beep(D, Flip<0.95>) :- Detector(D, H, R), Alarm(H).
Beep(D, Flip<R>) :- Detector(D, H, R).
SeismoMean(1, 3.0).
SeismoMean(0, 0.0).
";

/// The five request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Exact marginal with per-request input facts.
    Exact,
    /// Seeded Monte-Carlo marginal.
    Mc,
    /// Likelihood-weighted, conditioned marginal.
    Lw,
    /// Several queries in one request.
    Multi,
    /// A malformed body that must be refused with 400.
    Bad,
}

/// One block of twenty requests: the mix's shares. Multi-query requests
/// are the slowest kind, so a fifth of them puts the p95 inside their
/// band rather than on its edge.
const MIX: [(Kind, usize); 5] = [
    (Kind::Exact, 4),
    (Kind::Mc, 5),
    (Kind::Lw, 5),
    (Kind::Multi, 4),
    (Kind::Bad, 2),
];

/// `n` request bodies in seed-shuffled blocks of the mix.
pub fn http_bodies(n: usize, seed: u64) -> Vec<(Kind, String)> {
    let mut rng = SplitMix::new(seed ^ 0x4854_5450);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block: Vec<Kind> = MIX
            .iter()
            .flat_map(|&(k, c)| std::iter::repeat_n(k, c))
            .collect();
        rng.shuffle(&mut block);
        for kind in block {
            let body = http_body(kind, &mut rng);
            out.push((kind, body));
        }
    }
    out.truncate(n);
    out
}

fn http_body(kind: Kind, rng: &mut SplitMix) -> String {
    let a = rng.below(1000);
    let b = 1000 + rng.below(1000);
    let seed = rng.next_u64() >> 12;
    match kind {
        Kind::Exact => {
            let rate = 0.01 + 0.01 * rng.below(9) as f64;
            format!(
                "{{\"kind\":\"marginal\",\"fact\":\"Beep(d{a}, 1)\",\
                 \"input\":\"House(h{a}). Detector(d{a}, h{a}, {rate:?}).\",\
                 \"backend\":\"exact\"}}"
            )
        }
        Kind::Mc => format!(
            "{{\"kind\":\"marginal\",\"fact\":\"Alarm(h{a})\",\
             \"input\":\"House(h{a}). House(h{b}).\",\"backend\":\"mc\",\"runs\":256,\"seed\":{seed}}}"
        ),
        Kind::Lw => {
            let reading = 1.0 + 2.0 * rng.next_f64();
            format!(
                "{{\"kind\":\"marginal\",\"fact\":\"Quake(1)\",\
                 \"input\":\"House(h{a}). House(h{b}).\",\
                 \"given\":\"Alarm(h{a}). Normal<M, 1.0> == {reading:.3} :- Quake(Q), SeismoMean(Q, M).\",\
                 \"backend\":\"mc\",\"runs\":256,\"seed\":{seed}}}"
            )
        }
        Kind::Multi => format!(
            "{{\"queries\":[{{\"kind\":\"marginal\",\"fact\":\"Quake(1)\"}},\
             {{\"kind\":\"expectation\",\"rel\":\"Alarm\",\"agg\":\"count\"}},\
             {{\"kind\":\"marginals\",\"rel\":\"Burglary\"}}],\
             \"input\":\"House(h{a}). House(h{b}).\",\"backend\":\"exact\"}}"
        ),
        Kind::Bad => match rng.below(3) {
            0 => format!("{{\"kind\":\"marginal\",\"fact\":\"Alarm(h{a})\""),
            1 => format!("{{\"kind\":\"forecast\",\"fact\":\"Alarm(h{a})\"}}"),
            _ => format!("{{\"kind\":\"marginal\",\"fact\":\"Alarm(h{a})\",\"backend\":\"warp\"}}"),
        },
    }
}

// ---------------------------------------------------------------------------
// em-fit
// ---------------------------------------------------------------------------

/// The alarm network with the quake and burglary rates as holes. Each
/// house's alarm is one draw from the noisy-OR table of the network
/// (with a 1% leak), so a block observes every alarm, ringing or not.
pub const EM_PROGRAM: &str = "rel House(symbol) input.
Quake(Flip<?quake>) :- true.
Burglary(H, Flip<?burglary>) :- House(H).
Cause(H, Q, B) :- House(H), Quake(Q), Burglary(H, B).
Alarm(H, Flip<P>) :- Cause(H, Q, B), AlarmRate(Q, B, P).
AlarmRate(0, 0, 0.01).
AlarmRate(1, 0, 0.6).
AlarmRate(0, 1, 0.9).
AlarmRate(1, 1, 0.96).
";

/// The rates the dataset is drawn from. Larger than the diagnosis
/// network's 0.05 / 0.1 so that a few hundred blocks identify them.
pub const EM_TRUE_RATES: (f64, f64) = (0.3, 0.2);

pub const EM_HOUSES: usize = 2;

/// `blocks` independent draws of the network at [`EM_TRUE_RATES`], one
/// `% run k` block each, listing every house and every alarm outcome.
pub fn em_dataset(blocks: usize, seed: u64) -> String {
    let mut rng = SplitMix::new(seed ^ 0x0045_4d46_4954);
    let (q_rate, b_rate) = EM_TRUE_RATES;
    let table = |q: bool, b: bool| match (q, b) {
        (false, false) => 0.01,
        (true, false) => 0.6,
        (false, true) => 0.9,
        (true, true) => 0.96,
    };
    let mut out = String::new();
    for k in 0..blocks {
        let _ = writeln!(out, "% run {k}");
        let quake = rng.bernoulli(q_rate);
        for h in 1..=EM_HOUSES {
            let burgled = rng.bernoulli(b_rate);
            let alarm = rng.bernoulli(table(quake, burgled)) as u8;
            let _ = writeln!(out, "House(h{h}). Alarm(h{h}, {alarm}).");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_byte_identical_per_seed() {
        assert_eq!(heights_input(256, 9), heights_input(256, 9));
        assert_ne!(heights_input(256, 9), heights_input(256, 10));
        assert_eq!(http_bodies(100, 3), http_bodies(100, 3));
        assert_ne!(http_bodies(100, 3), http_bodies(100, 4));
        assert_eq!(em_dataset(50, 1), em_dataset(50, 1));
        assert_ne!(em_dataset(50, 1), em_dataset(50, 2));
        assert_eq!(
            diagnosis_reading(4).to_bits(),
            diagnosis_reading(4).to_bits()
        );
        assert_eq!(
            diagnosis_given(diagnosis_reading(4)),
            diagnosis_given(diagnosis_reading(4))
        );
    }

    #[test]
    fn heights_split_people_evenly() {
        let text = heights_input(256, 1);
        assert_eq!(text.matches(", nl).").count(), 128);
        assert_eq!(text.matches(", pe).").count(), 128);
        let mut names: Vec<&str> = text.lines().map(|l| &l[9..15]).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 256, "names are distinct");
    }

    #[test]
    fn http_mix_keeps_its_shares() {
        let bodies = http_bodies(200, 11);
        let count = |k: Kind| bodies.iter().filter(|(kind, _)| *kind == k).count();
        assert_eq!(count(Kind::Exact), 40);
        assert_eq!(count(Kind::Bad), 20);
    }

    #[test]
    fn closed_form_posterior_matches_the_known_value() {
        // At the example's reading of 2.4 the quake is very likely.
        let p = diagnosis_posterior_quake(2.4);
        assert!(p > 0.95 && p < 0.99, "{p}");
    }
}
