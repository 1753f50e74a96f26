//! An independence oracle that shares no code with the analysis: it runs a
//! program's loops, evaluates every subscript, and compares the address sets
//! two references touch.
//!
//! The compiler claims a reference pair independent by emitting no edge
//! between the two statements on that array. Whenever the oracle finds both
//! references touching one element — at two distinct iterations, when the
//! references belong to the same statement — the graph must hold an edge
//! between the two statements on that array, in either direction; a missing
//! edge is a refuted independence claim. References whose loop bounds or
//! subscripts are not plain integer functions of the enclosing loop indices
//! are not concrete and are skipped.

use crate::units::Rng;
use delin_frontend::ast::{BinOp, Expr, Loop, Program, Stmt};
use delin_vic::deps::DepEdge;
use std::collections::HashSet;

/// References enumerating more iterations than this are skipped.
pub const MAX_ITERATIONS: usize = 20_000;

/// One array reference with its enclosing loops.
struct Site<'a> {
    stmt: u32,
    array: String,
    write: bool,
    subscripts: &'a [Expr],
    loops: Vec<&'a Loop>,
}

/// What checking some pairs of one unit found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Check {
    /// Concrete pairs enumerated.
    pub pairs: usize,
    /// Of those, pairs the oracle found dependent.
    pub dependent: usize,
    /// Dependent pairs the graph left without an edge.
    pub refuted: usize,
}

impl Check {
    /// Adds another unit's counts.
    pub fn add(&mut self, other: Check) {
        self.pairs += other.pairs;
        self.dependent += other.dependent;
        self.refuted += other.refuted;
    }
}

/// Checks the graph `edges` of `program` against enumeration on every
/// concrete reference pair (`sample: None`) or on `sample` concrete pairs
/// drawn from `rng`.
pub fn check(program: &Program, edges: &[DepEdge], sample: Option<(usize, &mut Rng)>) -> Check {
    let sites = sites(program);
    let concrete: Vec<bool> = sites.iter().map(is_concrete).collect();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..sites.len() {
        for j in i..sites.len() {
            let (a, b) = (&sites[i], &sites[j]);
            let writes = a.write || b.write;
            let both = concrete[i] && concrete[j];
            if both && a.array == b.array && writes && (i != j || a.write) {
                pairs.push((i, j));
            }
        }
    }
    if let Some((count, rng)) = sample {
        rng.shuffle(&mut pairs);
        pairs.truncate(count);
    }
    let linked: HashSet<(u32, u32, String)> = edges
        .iter()
        .map(|e| (e.src.0.min(e.dst.0), e.src.0.max(e.dst.0), e.array.to_ascii_uppercase()))
        .collect();
    let mut out = Check::default();
    for (i, j) in pairs {
        let (Some(a), Some(b)) = (addresses(&sites[i]), addresses(&sites[j])) else { continue };
        out.pairs += 1;
        let same_stmt = sites[i].stmt == sites[j].stmt;
        if conflict(&a, &b, same_stmt) {
            out.dependent += 1;
            let (s, d) = (sites[i].stmt, sites[j].stmt);
            if !linked.contains(&(s.min(d), s.max(d), sites[i].array.clone())) {
                out.refuted += 1;
            }
        }
    }
    out
}

/// Every array reference of the program, in source order.
fn sites(program: &Program) -> Vec<Site<'_>> {
    fn walk<'a>(
        program: &'a Program,
        stmt: &'a Stmt,
        loops: &mut Vec<&'a Loop>,
        out: &mut Vec<Site<'a>>,
    ) {
        match stmt {
            Stmt::Loop(l) => {
                loops.push(l);
                for s in &l.body {
                    walk(program, s, loops, out);
                }
                loops.pop();
            }
            Stmt::Assign(a) => {
                let mut push = |e: &'a Expr, write: bool| {
                    if let Expr::Index(name, subs) = e {
                        if program.is_array(name) {
                            out.push(Site {
                                stmt: a.id.0,
                                array: name.to_ascii_uppercase(),
                                write,
                                subscripts: subs,
                                loops: loops.clone(),
                            });
                        }
                    }
                };
                push(&a.lhs, true);
                let mut reads = Vec::new();
                reads_of(&a.rhs, &mut reads);
                for r in reads {
                    push(r, false);
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut loops = Vec::new();
    for s in &program.body {
        walk(program, s, &mut loops, &mut out);
    }
    out
}

fn reads_of<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Int(_) | Expr::Var(_) => {}
        Expr::Index(_, subs) => {
            out.push(e);
            for s in subs {
                reads_of(s, out);
            }
        }
        Expr::Bin(_, a, b) => {
            reads_of(a, out);
            reads_of(b, out);
        }
        Expr::Neg(a) => reads_of(a, out),
    }
}

/// Are the site's loop bounds and subscripts integer expressions of the
/// enclosing loop indices alone?
fn is_concrete(site: &Site<'_>) -> bool {
    fn closed(e: &Expr, vars: &[&str]) -> bool {
        match e {
            Expr::Int(_) => true,
            Expr::Var(v) => vars.iter().any(|n| n.eq_ignore_ascii_case(v)),
            Expr::Index(..) | Expr::Bin(BinOp::Div, ..) => false,
            Expr::Bin(_, a, b) => closed(a, vars) && closed(b, vars),
            Expr::Neg(a) => closed(a, vars),
        }
    }
    let mut vars: Vec<&str> = Vec::new();
    for l in &site.loops {
        let bounds = [Some(&l.lower), Some(&l.upper), l.step.as_ref()];
        if !bounds.into_iter().flatten().all(|e| closed(e, &vars)) {
            return false;
        }
        vars.push(&l.var);
    }
    site.subscripts.iter().all(|e| closed(e, &vars))
}

/// Evaluates an integer expression over the loop indices in `env`.
fn eval(e: &Expr, env: &[(&str, i128)]) -> Option<i128> {
    Some(match e {
        Expr::Int(v) => *v,
        Expr::Var(name) => env.iter().rev().find(|(n, _)| n.eq_ignore_ascii_case(name))?.1,
        Expr::Index(..) => return None,
        Expr::Neg(a) => eval(a, env)?.checked_neg()?,
        Expr::Bin(op, a, b) => {
            let (a, b) = (eval(a, env)?, eval(b, env)?);
            match op {
                BinOp::Add => a.checked_add(b)?,
                BinOp::Sub => a.checked_sub(b)?,
                BinOp::Mul => a.checked_mul(b)?,
                BinOp::Div => return None,
            }
        }
    })
}

/// Bias that keeps encoded subscripts non-negative, and the bits each one
/// takes in the packed address.
const BIAS: i128 = 1 << 20;
const BITS: u32 = 21;

/// The site's `(address, iteration number)` list sorted by address, with
/// each element's subscripts packed into one `i128`; `None` when the site
/// is not concrete or too large.
fn addresses(site: &Site<'_>) -> Option<Vec<(i128, u32)>> {
    if site.subscripts.len() * BITS as usize > 126 {
        return None;
    }
    let mut out = Vec::new();
    let mut env: Vec<(&str, i128)> = Vec::new();
    enumerate(site, 0, &mut env, &mut out)?;
    out.sort_unstable();
    Some(out)
}

fn enumerate<'a>(
    site: &Site<'a>,
    depth: usize,
    env: &mut Vec<(&'a str, i128)>,
    out: &mut Vec<(i128, u32)>,
) -> Option<()> {
    let Some(l) = site.loops.get(depth) else {
        let mut packed = 0i128;
        for (d, s) in site.subscripts.iter().enumerate() {
            let v = eval(s, env)?;
            if v.abs() >= BIAS {
                return None;
            }
            packed |= (v + BIAS) << (BITS * d as u32);
        }
        out.push((packed, out.len() as u32));
        return (out.len() <= MAX_ITERATIONS).then_some(());
    };
    let (lo, hi) = (eval(&l.lower, env)?, eval(&l.upper, env)?);
    let step = match &l.step {
        Some(s) => eval(s, env)?,
        None => 1,
    };
    if step <= 0 {
        return None;
    }
    let mut v = lo;
    while v <= hi {
        env.push((&l.var, v));
        let r = enumerate(site, depth + 1, env, out);
        env.pop();
        r?;
        v += step;
    }
    Some(())
}

/// Do two sorted address lists share an element? For references of one
/// statement the shared element must be touched at two distinct
/// iterations: a statement reading the element it then writes in the same
/// iteration is no dependence.
fn conflict(a: &[(i128, u32)], b: &[(i128, u32)], same_stmt: bool) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let addr = a[i].0;
                let ai = a[i..].iter().take_while(|x| x.0 == addr).count();
                let bj = b[j..].iter().take_while(|x| x.0 == addr).count();
                if !same_stmt || ai > 1 || bj > 1 || a[i].1 != b[j].1 {
                    return true;
                }
                i += ai;
                j += bj;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use delin_frontend::parse_program;
    use delin_vic::pipeline::{run_pipeline, PipelineConfig};

    fn edges_of(src: &str) -> (Program, Vec<DepEdge>) {
        let program = parse_program(src).expect("parses");
        let config = PipelineConfig { workers: 1, ..PipelineConfig::default() };
        let report = run_pipeline(src, &config).expect("analyzes");
        (program, report.graph.edges)
    }

    #[test]
    fn the_papers_motivating_nest_is_independent() {
        let src =
            "REAL C(0:99)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n1 C(i + 10*j) = C(i + 10*j + 5)\nEND\n";
        let (program, edges) = edges_of(src);
        let c = check(&program, &edges, None);
        assert_eq!((c.pairs, c.dependent, c.refuted), (2, 0, 0));
    }

    #[test]
    fn a_dropped_edge_is_refuted() {
        let src = "REAL A(0:99)\nDO 1 i = 1, 50\n1 A(i) = A(i - 1)\nEND\n";
        let (program, edges) = edges_of(src);
        assert!(!edges.is_empty());
        let honest = check(&program, &edges, None);
        assert_eq!((honest.dependent, honest.refuted), (1, 0));
        let lying = check(&program, &[], None);
        assert_eq!(lying.refuted, 1, "a missing edge on a real dependence is a refuted claim");
    }

    #[test]
    fn same_iteration_read_then_write_is_no_dependence() {
        let src = "REAL A(0:99)\nDO 1 i = 0, 50\n1 A(i) = A(i) + 1\nEND\n";
        let (program, _) = edges_of(src);
        let c = check(&program, &[], None);
        assert_eq!((c.pairs, c.dependent), (2, 0));
    }

    #[test]
    fn symbolic_bounds_are_skipped() {
        let src = "REAL W(0:999)\nDO 1 I = 0, NX - 1\n1 W(I) = W(I + 1)\nEND\n";
        let (program, _) = edges_of(src);
        assert_eq!(check(&program, &[], None).pairs, 0);
    }
}
