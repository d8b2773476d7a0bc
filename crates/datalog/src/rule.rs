//! Datalog rules over the relational data model.
//!
//! Variables are rule-local indices `0..n_vars`; a rule is *safe* (range
//! restricted, Def. 3.3 of the paper) when every head variable occurs in
//! the body.

use gdatalog_data::{RelId, Tuple, Value};

/// A term in a Datalog atom: a rule-local variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Variable with rule-local index.
    Var(usize),
    /// Constant value.
    Const(Value),
}

impl Term {
    /// The variable index, if this is a variable.
    pub fn as_var(&self) -> Option<usize> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

/// A relational atom `R(t1, …, tn)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The relation.
    pub rel: RelId,
    /// The argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(rel: RelId, args: Vec<Term>) -> Atom {
        Atom { rel, args }
    }

    /// All variable indices occurring in the atom (with duplicates).
    pub fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.args.iter().filter_map(Term::as_var)
    }

    /// Instantiates the atom under a complete binding.
    ///
    /// # Panics
    /// Panics if a variable is unbound.
    pub fn instantiate(&self, binding: &[Option<Value>]) -> Tuple {
        self.args
            .iter()
            .map(|t| match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => binding[*v].clone().expect("instantiate: unbound variable"),
            })
            .collect()
    }
}

/// Errors in rule construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// A head variable does not occur in the body (unsafe rule).
    UnsafeHeadVar {
        /// The offending variable index.
        var: usize,
    },
    /// A variable index is out of the declared range.
    VarOutOfRange {
        /// The offending variable index.
        var: usize,
        /// Declared variable count.
        n_vars: usize,
    },
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleError::UnsafeHeadVar { var } => {
                write!(f, "head variable v{var} does not occur in the body")
            }
            RuleError::VarOutOfRange { var, n_vars } => {
                write!(f, "variable v{var} out of range (n_vars = {n_vars})")
            }
        }
    }
}

impl std::error::Error for RuleError {}

/// A positive Datalog rule `head ← body₁, …, bodyₖ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalogRule {
    /// The head atom.
    pub head: Atom,
    /// Body atoms (conjunction; may be empty for facts-as-rules).
    pub body: Vec<Atom>,
    /// Number of rule-local variables.
    pub n_vars: usize,
}

impl DatalogRule {
    /// Creates a rule, validating safety (every head variable occurs in the
    /// body) and variable ranges.
    pub fn new(head: Atom, body: Vec<Atom>, n_vars: usize) -> Result<DatalogRule, RuleError> {
        for v in head.vars().chain(body.iter().flat_map(Atom::vars)) {
            if v >= n_vars {
                return Err(RuleError::VarOutOfRange { var: v, n_vars });
            }
        }
        let mut in_body = vec![false; n_vars];
        for atom in &body {
            for v in atom.vars() {
                in_body[v] = true;
            }
        }
        for v in head.vars() {
            if !in_body[v] {
                return Err(RuleError::UnsafeHeadVar { var: v });
            }
        }
        Ok(DatalogRule { head, body, n_vars })
    }
}

/// A positive Datalog program: a set of rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatalogProgram {
    /// The rules, in declaration order.
    pub rules: Vec<DatalogRule>,
}

impl DatalogProgram {
    /// Creates a program from rules.
    pub fn new(rules: Vec<DatalogRule>) -> DatalogProgram {
        DatalogProgram { rules }
    }

    /// Relations that appear in some rule head (the intensional relations
    /// relative to this program).
    pub fn head_relations(&self) -> Vec<RelId> {
        let mut v: Vec<RelId> = self.rules.iter().map(|r| r.head.rel).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RelId {
        RelId(n)
    }

    #[test]
    fn safe_rule_accepted() {
        // P(x) :- Q(x, y).
        let rule = DatalogRule::new(
            Atom::new(r(0), vec![Term::Var(0)]),
            vec![Atom::new(r(1), vec![Term::Var(0), Term::Var(1)])],
            2,
        );
        assert!(rule.is_ok());
    }

    #[test]
    fn unsafe_rule_rejected() {
        // P(x) :- Q(y).
        let rule = DatalogRule::new(
            Atom::new(r(0), vec![Term::Var(0)]),
            vec![Atom::new(r(1), vec![Term::Var(1)])],
            2,
        );
        assert_eq!(rule.unwrap_err(), RuleError::UnsafeHeadVar { var: 0 });
    }

    #[test]
    fn out_of_range_var_rejected() {
        let rule = DatalogRule::new(
            Atom::new(r(0), vec![Term::Var(5)]),
            vec![Atom::new(r(1), vec![Term::Var(5)])],
            2,
        );
        assert!(matches!(rule, Err(RuleError::VarOutOfRange { var: 5, .. })));
    }

    #[test]
    fn ground_rule_is_safe() {
        // P(1) :- ⊤ (empty body, no variables).
        let rule = DatalogRule::new(Atom::new(r(0), vec![Term::Const(Value::int(1))]), vec![], 0);
        assert!(rule.is_ok());
    }

    #[test]
    fn instantiate_atom() {
        let atom = Atom::new(r(0), vec![Term::Var(1), Term::Const(Value::int(7))]);
        let binding = vec![None, Some(Value::sym("a"))];
        let t = atom.instantiate(&binding);
        assert_eq!(t.values()[0], Value::sym("a"));
        assert_eq!(t.values()[1], Value::int(7));
    }

    #[test]
    fn head_relations_deduped() {
        let p = DatalogProgram::new(vec![
            DatalogRule::new(Atom::new(r(2), vec![]), vec![], 0).unwrap(),
            DatalogRule::new(Atom::new(r(2), vec![]), vec![], 0).unwrap(),
            DatalogRule::new(Atom::new(r(1), vec![]), vec![], 0).unwrap(),
        ]);
        assert_eq!(p.head_relations(), vec![r(1), r(2)]);
    }
}
