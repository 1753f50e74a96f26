//! Allen–Kennedy vector code generation.
//!
//! `codegen(R, k)`: consider the dependence edges among statements `R`
//! that are not already satisfied by the serialized outer loops (carried
//! level > k, or loop-independent). Statements not on a cycle vectorize
//! over all their remaining loops; strongly-connected components keep the
//! level-`k` loop serial and recurse at `k + 1`. The output is printed in
//! FORTRAN-90 style with `lo:hi` sections substituted for vectorized loop
//! variables.
//!
//! The dependence graph holds one raw edge per reference pair and
//! direction, often hundreds of thousands for a few hundred statements.
//! [`vectorize`] therefore condenses it once into one edge per ordered
//! statement pair, and every `codegen(R, k)` call works on the condensed
//! pairs inside `R` that are still active at level `k`, never on the raw
//! edges.
//!
//! The emitted statement order comes from Tarjan's algorithm, whose
//! component order follows the order of each node's adjacency list — the
//! order in which a scan of the raw edges first meets an *active* edge of
//! each pair. That order depends on `k`: a pair whose first raw edge is
//! carried at level 1 and whose loop-independent edge comes later sorts by
//! the first edge at `k = 0` but by the later one at `k = 1`. Each
//! condensed pair therefore keeps a small frontier of `(activity, raw
//! index)` entries, one per raw edge whose activity (carrying level, or
//! `usize::MAX` when loop-independent) beats every earlier raw edge of the
//! pair. The first entry above `k` names the pair's first active raw edge,
//! and sorting the active pairs by it reproduces the raw scan's adjacency
//! order. Duplicate raw edges never change Tarjan's result, so the code is
//! byte-identical to a raw scan per call.

use crate::deps::DepGraph;
use crate::scc::strongly_connected_components;
use delin_frontend::ast::{Assign, Expr, Program, Stmt, StmtId};
use delin_frontend::pretty::expr_to_string;
use fxhash::FxHashMap;
use std::fmt::Write as _;

/// One loop shell enclosing a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopShell {
    /// Loop variable name.
    pub var: String,
    /// Lower bound.
    pub lower: Expr,
    /// Upper bound.
    pub upper: Expr,
    /// Identity (preorder index), matching the access-collection walk.
    pub uid: u32,
}

/// A statement with its loop context.
#[derive(Debug, Clone)]
struct StmtCtx<'a> {
    id: StmtId,
    assign: &'a Assign,
    loops: Vec<LoopShell>,
}

/// Generated vector code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VectorStmt {
    /// A loop kept serial.
    Serial {
        /// Loop variable.
        var: String,
        /// Lower bound (rendered).
        lower: String,
        /// Upper bound (rendered).
        upper: String,
        /// Body.
        body: Vec<VectorStmt>,
    },
    /// A (possibly vectorized) assignment.
    Statement {
        /// Statement identity.
        id: StmtId,
        /// Rendered FORTRAN-90-style text.
        text: String,
        /// Number of loops turned into vector sections for this statement.
        vector_dims: usize,
    },
}

/// Result of vectorization.
#[derive(Debug, Clone)]
pub struct VectorizeResult {
    /// The generated code tree.
    pub code: Vec<VectorStmt>,
    /// Total assignment statements.
    pub total_statements: usize,
    /// Statements vectorized over at least one loop.
    pub vectorized_statements: usize,
    /// Total vectorized loop dimensions summed over statements.
    pub vector_dimensions: usize,
}

impl VectorizeResult {
    /// Renders the code tree as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.code {
            render_stmt(s, 0, &mut out);
        }
        out
    }
}

fn render_stmt(s: &VectorStmt, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    match s {
        VectorStmt::Serial { var, lower, upper, body } => {
            let _ = writeln!(out, "{indent}DO {var} = {lower}, {upper}");
            for b in body {
                render_stmt(b, depth + 1, out);
            }
            let _ = writeln!(out, "{indent}ENDDO");
        }
        VectorStmt::Statement { text, .. } => {
            let _ = writeln!(out, "{indent}{text}");
        }
    }
}

/// Vectorizes a program given its dependence graph.
pub fn vectorize(program: &Program, graph: &DepGraph) -> VectorizeResult {
    let ctxs = statement_contexts(program);
    let pairs = condense(&ctxs, graph);
    let mut result = VectorizeResult {
        code: Vec::new(),
        total_statements: ctxs.len(),
        vectorized_statements: 0,
        vector_dimensions: 0,
    };
    let all: Vec<usize> = (0..ctxs.len()).collect();
    let every_pair: Vec<usize> = (0..pairs.len()).collect();
    let mut pos = vec![0; ctxs.len()];
    result.code = codegen(&ctxs, &pairs, &all, &every_pair, 0, &mut pos, &mut result);
    result
}

/// Flattens the program's statements, in source order, with their loop
/// shells.
fn statement_contexts(program: &Program) -> Vec<StmtCtx<'_>> {
    fn walk<'a>(
        stmts: &'a [Stmt],
        stack: &mut Vec<LoopShell>,
        uid: &mut u32,
        out: &mut Vec<StmtCtx<'a>>,
    ) {
        for s in stmts {
            match s {
                Stmt::Loop(l) => {
                    stack.push(LoopShell {
                        var: l.var.clone(),
                        lower: l.lower.clone(),
                        upper: l.upper.clone(),
                        uid: *uid,
                    });
                    *uid += 1;
                    walk(&l.body, stack, uid, out);
                    stack.pop();
                }
                Stmt::Assign(a) => out.push(StmtCtx { id: a.id, assign: a, loops: stack.clone() }),
            }
        }
    }
    let mut ctxs = Vec::new();
    walk(&program.body, &mut Vec::new(), &mut 0, &mut ctxs);
    ctxs
}

/// Every raw edge from statement `src` to statement `dst` (indices into the
/// statement contexts), condensed into one edge.
struct PairEdge {
    src: usize,
    dst: usize,
    /// `(activity, raw index)` of each raw edge whose activity is strictly
    /// greater than that of every earlier raw edge of the pair, in raw
    /// order. Activity is the carrying level, or `usize::MAX` for a
    /// loop-independent edge: the edge is active at level `k` iff its
    /// activity exceeds `k`.
    frontier: Vec<(usize, usize)>,
}

impl PairEdge {
    /// Raw index of the pair's first edge active at `level`, if any.
    fn first_active(&self, level: usize) -> Option<usize> {
        self.frontier.iter().find(|&&(activity, _)| activity > level).map(|&(_, raw)| raw)
    }
}

/// Collapses `graph.edges` into one [`PairEdge`] per statement pair. Edges
/// naming a statement outside `ctxs` are dropped.
fn condense(ctxs: &[StmtCtx], graph: &DepGraph) -> Vec<PairEdge> {
    let index_of: FxHashMap<StmtId, usize> =
        ctxs.iter().enumerate().map(|(i, c)| (c.id, i)).collect();
    let mut pair_of: FxHashMap<(usize, usize), usize> = FxHashMap::default();
    let mut pairs: Vec<PairEdge> = Vec::new();
    for (raw, e) in graph.edges.iter().enumerate() {
        let (Some(&src), Some(&dst)) = (index_of.get(&e.src), index_of.get(&e.dst)) else {
            continue;
        };
        let activity = e.level.unwrap_or(usize::MAX);
        let p = *pair_of.entry((src, dst)).or_insert_with(|| {
            pairs.push(PairEdge { src, dst, frontier: Vec::new() });
            pairs.len() - 1
        });
        let frontier = &mut pairs[p].frontier;
        if frontier.last().is_none_or(|&(last, _)| activity > last) {
            frontier.push((activity, raw));
        }
    }
    pairs
}

/// `codegen(R, k)` over the statements `members` (indices into `ctxs`).
/// `candidates` holds every pair between two members that may be active
/// at `level`; `pos` is scratch, indexed like `ctxs`.
fn codegen(
    ctxs: &[StmtCtx],
    pairs: &[PairEdge],
    members: &[usize],
    candidates: &[usize],
    level: usize,
    pos: &mut [usize],
    result: &mut VectorizeResult,
) -> Vec<VectorStmt> {
    // Active edges: not yet satisfied by outer serial loops, in the order
    // a scan of the raw edges would first meet them.
    for (p, &m) in members.iter().enumerate() {
        pos[m] = p;
    }
    let mut active: Vec<(usize, usize)> = candidates
        .iter()
        .filter_map(|&c| pairs[c].first_active(level).map(|raw| (raw, c)))
        .collect();
    active.sort_unstable();
    let edges: Vec<(usize, usize)> =
        active.iter().map(|&(_, c)| (pos[pairs[c].src], pos[pairs[c].dst])).collect();
    let mut self_loop = vec![false; members.len()];
    for &(a, b) in &edges {
        if a == b {
            self_loop[a] = true;
        }
    }
    let comps = strongly_connected_components(members.len(), &edges);

    // Hand each component the active pairs inside it.
    let mut comp_of = vec![0; members.len()];
    for (i, comp) in comps.iter().enumerate() {
        for &p in comp {
            comp_of[p] = i;
        }
    }
    let mut inner: Vec<Vec<usize>> = vec![Vec::new(); comps.len()];
    for (&(a, b), &(_, c)) in edges.iter().zip(&active) {
        if comp_of[a] == comp_of[b] {
            inner[comp_of[a]].push(c);
        }
    }

    let mut out = Vec::new();
    for (comp, inner) in comps.into_iter().zip(inner) {
        let comp_members: Vec<usize> = comp.iter().map(|&p| members[p]).collect();
        let cyclic = comp.len() > 1 || self_loop[comp[0]];
        if !cyclic {
            // Vectorize this statement over all its loops at depth >= level.
            let m = comp_members[0];
            out.push(emit_vector_statement(&ctxs[m], level, result));
            continue;
        }
        // A cycle: the level-`level` loop stays serial. All members must
        // share that loop (guaranteed for cycles — carried edges need
        // common loops); fall back to fully serial code if not.
        let shared = comp_members
            .iter()
            .map(|&m| ctxs[m].loops.get(level).map(|l| l.uid))
            .collect::<Vec<_>>();
        let all_share =
            shared.iter().all(|u| u.is_some() && *u == shared[0]) && shared[0].is_some();
        if !all_share {
            for &m in &comp_members {
                out.push(emit_fully_serial(&ctxs[m], level));
            }
            continue;
        }
        let shell = &ctxs[comp_members[0]].loops[level];
        let body = codegen(ctxs, pairs, &comp_members, &inner, level + 1, pos, result);
        out.push(VectorStmt::Serial {
            var: shell.var.clone(),
            lower: expr_to_string(&shell.lower),
            upper: expr_to_string(&shell.upper),
            body,
        });
    }
    out
}

/// Emits a statement vectorized over its loops at depth ≥ `level`
/// (substituting `lo:hi` sections for the loop variables).
fn emit_vector_statement(ctx: &StmtCtx, level: usize, result: &mut VectorizeResult) -> VectorStmt {
    let mut lhs = ctx.assign.lhs.clone();
    let mut rhs = ctx.assign.rhs.clone();
    let mut dims = 0;
    for shell in ctx.loops.iter().skip(level) {
        let section = Expr::var(&format!(
            "{}:{}",
            expr_to_string(&shell.lower),
            expr_to_string(&shell.upper)
        ));
        lhs = lhs.substitute_var(&shell.var, &section);
        rhs = rhs.substitute_var(&shell.var, &section);
        dims += 1;
    }
    if dims > 0 {
        result.vectorized_statements += 1;
        result.vector_dimensions += dims;
    }
    VectorStmt::Statement {
        id: ctx.id,
        text: format!("{} = {}", expr_to_string(&lhs), expr_to_string(&rhs)),
        vector_dims: dims,
    }
}

/// Conservative fallback: the statement wrapped in all its remaining serial
/// loops.
fn emit_fully_serial(ctx: &StmtCtx, level: usize) -> VectorStmt {
    let stmt = VectorStmt::Statement {
        id: ctx.id,
        text: format!("{} = {}", expr_to_string(&ctx.assign.lhs), expr_to_string(&ctx.assign.rhs)),
        vector_dims: 0,
    };
    let mut cur = stmt;
    for shell in ctx.loops.iter().skip(level).rev() {
        cur = VectorStmt::Serial {
            var: shell.var.clone(),
            lower: expr_to_string(&shell.lower),
            upper: expr_to_string(&shell.upper),
            body: vec![cur],
        };
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::{build_dependence_graph, DepEdge, DepKind, TestChoice};
    use crate::pipeline::{analyze, PipelineConfig};
    use delin_corpus::stream::{dense_units, generated_units, refinement_units, riceps_units};
    use delin_frontend::parse_program;
    use delin_numeric::Assumptions;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The raw-scan vectorizer the condensed graph replaced: every
    /// `codegen(R, k)` call rescans every raw edge. The differential oracle.
    fn reference_vectorize(program: &Program, graph: &DepGraph) -> VectorizeResult {
        let ctxs = statement_contexts(program);
        let index_of: HashMap<StmtId, usize> =
            ctxs.iter().enumerate().map(|(i, c)| (c.id, i)).collect();
        let mut result = VectorizeResult {
            code: Vec::new(),
            total_statements: ctxs.len(),
            vectorized_statements: 0,
            vector_dimensions: 0,
        };
        let all: Vec<usize> = (0..ctxs.len()).collect();
        result.code = reference_codegen(&ctxs, &all, 0, graph, &index_of, &mut result);
        result
    }

    fn reference_codegen(
        ctxs: &[StmtCtx],
        members: &[usize],
        level: usize,
        graph: &DepGraph,
        index_of: &HashMap<StmtId, usize>,
        result: &mut VectorizeResult,
    ) -> Vec<VectorStmt> {
        // Active edges: among members, not yet satisfied by outer serial loops.
        let member_pos: HashMap<usize, usize> =
            members.iter().enumerate().map(|(p, &m)| (m, p)).collect();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for e in &graph.edges {
            let (Some(&si), Some(&di)) = (index_of.get(&e.src), index_of.get(&e.dst)) else {
                continue;
            };
            let (Some(&sp), Some(&dp)) = (member_pos.get(&si), member_pos.get(&di)) else {
                continue;
            };
            let active = match e.level {
                None => true,
                Some(l) => l > level,
            };
            if active {
                edges.push((sp, dp));
            }
        }
        let comps = strongly_connected_components(members.len(), &edges);

        let mut out = Vec::new();
        for comp in comps {
            let comp_members: Vec<usize> = comp.iter().map(|&p| members[p]).collect();
            let cyclic = comp.len() > 1 || edges.iter().any(|&(a, b)| a == b && comp.contains(&a));
            if !cyclic {
                // Vectorize this statement over all its loops at depth >= level.
                let m = comp_members[0];
                out.push(emit_vector_statement(&ctxs[m], level, result));
                continue;
            }
            // A cycle: the level-`level` loop stays serial. All members must
            // share that loop (guaranteed for cycles — carried edges need
            // common loops); fall back to fully serial code if not.
            let shared = comp_members
                .iter()
                .map(|&m| ctxs[m].loops.get(level).map(|l| l.uid))
                .collect::<Vec<_>>();
            let all_share =
                shared.iter().all(|u| u.is_some() && *u == shared[0]) && shared[0].is_some();
            if !all_share {
                for &m in &comp_members {
                    out.push(emit_fully_serial(&ctxs[m], level));
                }
                continue;
            }
            let shell = &ctxs[comp_members[0]].loops[level];
            let body = reference_codegen(ctxs, &comp_members, level + 1, graph, index_of, result);
            out.push(VectorStmt::Serial {
                var: shell.var.clone(),
                lower: expr_to_string(&shell.lower),
                upper: expr_to_string(&shell.upper),
                body,
            });
        }
        out
    }

    fn assert_matches_reference(what: &str, program: &Program, graph: &DepGraph) {
        let got = vectorize(program, graph);
        let want = reference_vectorize(program, graph);
        assert_eq!(got.code, want.code, "{what}: code tree differs from the raw scan");
        assert_eq!(
            (got.total_statements, got.vectorized_statements, got.vector_dimensions),
            (want.total_statements, want.vectorized_statements, want.vector_dimensions),
            "{what}: counts differ from the raw scan"
        );
    }

    #[test]
    fn condensed_graph_matches_raw_scan_on_corpus_units() {
        let units = dense_units(16, 7)
            .chain(generated_units(16, 7))
            .chain(refinement_units(16, 7))
            .chain(riceps_units(Some(120)));
        for unit in units {
            for choice in [TestChoice::DelinearizationFirst, TestChoice::BatteryOnly] {
                let config = PipelineConfig {
                    choice,
                    assumptions: unit.assumptions.clone(),
                    workers: 1,
                    ..PipelineConfig::default()
                };
                let (program, graph, _, _) = analyze(&unit.source, &config, None).unwrap();
                assert_matches_reference(&format!("{} {choice:?}", unit.name), &program, &graph);
            }
        }
    }

    /// A program with one scalar assignment `X<i> = <i>` per entry of
    /// `shape`; each entry first closes `close` of the open `DO` loops, then
    /// opens `open` more (nesting depth at most 3).
    fn nest_program(shape: &[(u8, u8)]) -> Program {
        let mut src = String::new();
        let mut depth = 0;
        for (i, &(close, open)) in shape.iter().enumerate() {
            for _ in 0..close.min(depth) {
                src.push_str("ENDDO\n");
                depth -= 1;
            }
            for _ in 0..open.min(3 - depth) {
                depth += 1;
                src.push_str(&format!("DO I{depth} = 1, 10\n"));
            }
            src.push_str(&format!("X{i} = {i}\n"));
        }
        for _ in 0..depth {
            src.push_str("ENDDO\n");
        }
        src.push_str("END\n");
        parse_program(&src).unwrap()
    }

    /// A graph over `program`'s statements with the given raw edges, in
    /// order: `(src, dst, level)` by statement position.
    fn synthetic_graph(program: &Program, raw: &[(usize, usize, Option<usize>)]) -> DepGraph {
        let stmts: Vec<StmtId> = statement_contexts(program).iter().map(|c| c.id).collect();
        let edges = raw
            .iter()
            .map(|&(s, d, level)| DepEdge {
                src: stmts[s],
                dst: stmts[d],
                kind: DepKind::True,
                array: "X".to_string(),
                dir_vecs: Vec::new(),
                level,
                tested_by: "synthetic",
            })
            .collect();
        DepGraph { stmts, edges, ..DepGraph::default() }
    }

    #[test]
    fn pair_order_follows_first_active_raw_edge_not_first_occurrence() {
        // a, b, c share one loop. At level 0 the carried back edges make
        // {a, b, c} one cycle; at level 1 only the loop-independent edges
        // remain, and a's first active successor is c (raw edge 1), though
        // its first successor overall is b (raw edge 0). Keeping only the
        // most-active level per pair would order b first and swap the
        // emitted statements.
        let program = nest_program(&[(0, 1), (0, 0), (0, 0)]);
        let (a, b, c) = (0, 1, 2);
        let graph = synthetic_graph(
            &program,
            &[(a, b, Some(1)), (a, c, None), (a, b, None), (b, a, Some(1)), (c, a, Some(1))],
        );
        assert_matches_reference("hand-written", &program, &graph);
    }

    proptest! {
        #[test]
        fn condensed_graph_matches_raw_scan_on_synthetic_graphs(
            shape in prop::collection::vec((0u8..3, 0u8..3), 1..9),
            raw in prop::collection::vec((0usize..64, 0usize..64, 0usize..4), 0..40),
        ) {
            let program = nest_program(&shape);
            let n = shape.len();
            // Level 0 encodes a loop-independent edge; the rest are
            // carrying levels, interleaved in raw order.
            let raw: Vec<(usize, usize, Option<usize>)> = raw
                .iter()
                .map(|&(s, d, l)| (s % n, d % n, (l > 0).then_some(l)))
                .collect();
            let graph = synthetic_graph(&program, &raw);
            assert_matches_reference(&format!("{shape:?} {raw:?}"), &program, &graph);
        }
    }

    fn run(src: &str) -> VectorizeResult {
        let p = parse_program(src).unwrap();
        let g = build_dependence_graph(&p, &Assumptions::new(), TestChoice::DelinearizationFirst);
        vectorize(&p, &g)
    }

    #[test]
    fn independent_loop_vectorizes() {
        let r = run("
            REAL D(0:9)
            DO 1 i = 0, 4
        1   D(i) = D(i + 5)
            END
        ");
        assert_eq!(r.vectorized_statements, 1);
        let text = r.render();
        assert!(text.contains("D(0:4) = D(0:4 + 5)"), "{text}");
        assert!(!text.contains("DO "), "{text}");
    }

    #[test]
    fn recurrence_stays_serial() {
        let r = run("
            REAL D(0:9)
            DO 1 i = 0, 8
        1   D(i + 1) = D(i)
            END
        ");
        assert_eq!(r.vectorized_statements, 0);
        let text = r.render();
        assert!(text.contains("DO I = 0, 8"), "{text}");
        assert!(text.contains("D(I + 1) = D(I)"), "{text}");
    }

    #[test]
    fn motivating_example_vectorizes_with_delinearization() {
        let src = "
            REAL C(0:99)
            DO 1 i = 0, 4
            DO 1 j = 0, 9
        1   C(i + 10*j) = C(i + 10*j + 5)
            END
        ";
        let r = run(src);
        assert_eq!(r.vectorized_statements, 1);
        assert_eq!(r.vector_dimensions, 2);
        let text = r.render();
        assert!(text.contains("C(0:4 + 10 * 0:9) = C(0:4 + 10 * 0:9 + 5)"), "{text}");
        // Without delinearization the statement stays fully serial.
        let p = parse_program(src).unwrap();
        let g = build_dependence_graph(&p, &Assumptions::new(), TestChoice::BatteryOnly);
        let r = vectorize(&p, &g);
        assert_eq!(r.vectorized_statements, 0);
    }

    #[test]
    fn loop_distribution_orders_statements() {
        // S2 feeds S1 across iterations? No: S1 writes A, S2 reads A at the
        // same iteration: loop-independent edge S1 -> S2; both vectorize,
        // S1 printed before S2.
        let r = run("
            REAL A(0:9), B(0:9)
            DO 1 i = 0, 9
              A(i) = 1
        1   B(i) = A(i)
            END
        ");
        assert_eq!(r.vectorized_statements, 2);
        let text = r.render();
        let a_pos = text.find("A(0:9) = 1").expect("A statement");
        let b_pos = text.find("B(0:9) = A(0:9)").expect("B statement");
        assert!(a_pos < b_pos, "{text}");
    }

    #[test]
    fn partial_vectorization_outer_serial() {
        // Outer-carried recurrence, inner independent: the i loop stays
        // serial, the j loop vectorizes.
        let r = run("
            REAL A(0:10, 0:10)
            DO 1 i = 1, 9
            DO 1 j = 1, 9
        1   A(i + 1, j) = A(i, j)
            END
        ");
        assert_eq!(r.vectorized_statements, 1);
        assert_eq!(r.vector_dimensions, 1);
        let text = r.render();
        assert!(text.contains("DO I = 1, 9"), "{text}");
        assert!(text.contains("A(I + 1, 1:9) = A(I, 1:9)"), "{text}");
        assert!(!text.contains("DO J"), "{text}");
    }

    #[test]
    fn mixed_cycle_and_free_statement() {
        // S1 is a recurrence (serial); S2 is independent of everything
        // (vector).
        let r = run("
            REAL A(0:20), B(0:20), C(0:20)
            DO 1 i = 0, 9
              A(i + 1) = A(i)
        1   B(i) = C(i)
            END
        ");
        assert_eq!(r.vectorized_statements, 1);
        let text = r.render();
        assert!(text.contains("B(0:9) = C(0:9)"), "{text}");
        assert!(text.contains("DO I = 0, 9"), "{text}");
    }

    #[test]
    fn statements_outside_loops() {
        let r = run("
            REAL A(0:9)
            X = 1
            A(0) = X
            END
        ");
        assert_eq!(r.total_statements, 2);
        assert_eq!(r.vectorized_statements, 0);
        let text = r.render();
        let x = text.find("X = 1").unwrap();
        let a = text.find("A(0) = X").unwrap();
        assert!(x < a);
    }
}
