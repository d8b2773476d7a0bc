//! Shared program corpus for the criterion suites and the experiment
//! harness: the paper's example programs plus parameterized generators for
//! scaling studies.

use std::fmt::Write as _;

/// Example 3.4 of the paper (earthquake/burglary/alarm), parameterized by
/// the number of houses in the first city.
pub fn burglary_program(houses: usize) -> String {
    let mut src = String::from(
        r#"
        rel City(symbol, real) input.
        rel House(symbol, symbol) input.
        rel Business(symbol, symbol) input.
        City(gotham, 0.3).
        City(metropolis, 0.1).
        Business(b1, metropolis).
        Earthquake(C, Flip<0.1>) :- City(C, R).
        Unit(H, C) :- House(H, C).
        Unit(B, C) :- Business(B, C).
        Burglary(X, C, Flip<R>) :- Unit(X, C), City(C, R).
        Trig(X, Flip<0.6>) :- Unit(X, C), Earthquake(C, 1).
        Trig(X, Flip<0.9>) :- Burglary(X, C, 1).
        Alarm(X) :- Trig(X, 1).
    "#,
    );
    for h in 0..houses {
        let _ = writeln!(src, "House(h{h}, gotham).");
    }
    src
}

/// `k` independent coins: the chase tree has exactly `2^k` leaves — the
/// scaling workload for exact enumeration.
pub fn coins_program(k: usize) -> String {
    let mut src = String::new();
    for i in 0..k {
        let _ = writeln!(src, "C{i}(Flip<0.5>) :- true.");
    }
    src
}

/// Example 3.5 of the paper (heights), parameterized by the number of
/// persons per country.
pub fn heights_program(per_country: usize) -> String {
    let mut src = String::from(
        r#"
        rel PCountry(symbol, symbol) input.
        rel CMoments(symbol, real, real) input.
        CMoments(nl, 183.8, 49.0).
        CMoments(pe, 165.2, 36.0).
        PHeight(P, Normal<Mu, S2>) :- PCountry(P, C), CMoments(C, Mu, S2).
    "#,
    );
    for i in 0..per_country {
        let _ = writeln!(src, "PCountry(nl{i}, nl).");
        let _ = writeln!(src, "PCountry(pe{i}, pe).");
    }
    src
}

/// The §6.3 tagged geometric chain (discrete, not weakly acyclic,
/// terminates almost surely).
pub fn geometric_chain() -> &'static str {
    "G(0).\nG(Geometric<0.5 | X>) :- G(X).\n"
}

/// The §6.3 continuous chain (almost surely non-terminating).
pub fn normal_chain() -> &'static str {
    "C(0.0).\nC(Normal<V, 1.0>) :- C(V).\n"
}

/// The serving-layer workload model: a library of `k` independent
/// event detectors (`In_i → Ev_i → Out_i`). Compilation and planning
/// scale with `k` while any single request's evidence activates only one
/// detector — the shape where caching parse+plan pays off most, and a
/// realistic stand-in for a production model serving many tenants.
pub fn serving_library_program(k: usize) -> String {
    let mut src = String::new();
    for i in 0..k {
        let _ = writeln!(src, "rel In{i}(symbol, real) input.");
        let _ = writeln!(src, "Ev{i}(X, Flip<R>) :- In{i}(X, R).");
        let _ = writeln!(src, "Out{i}(X) :- Ev{i}(X, 1).");
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdatalog_core::Engine;
    use gdatalog_lang::SemanticsMode;

    #[test]
    fn corpus_programs_compile() {
        for src in [
            burglary_program(3),
            coins_program(4),
            heights_program(5),
            geometric_chain().to_string(),
            normal_chain().to_string(),
            serving_library_program(4),
        ] {
            Engine::from_source(&src, SemanticsMode::Grohe).expect("corpus program compiles");
        }
    }
}
