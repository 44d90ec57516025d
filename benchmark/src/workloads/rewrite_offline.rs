//! `rewrite_offline` — the paper's pipeline with no graph.
//!
//! Three problem sets: a seeded *typical* set of random problems taken from
//! text all the way to the rendered rewriting (conversion-dominated), the
//! *hard* determinization blow-up family (construction-dominated), and a
//! *render* set that isolates state elimination.  All time is in `regexlang`,
//! `automata` and `rewriter`; `graphdb`, `engine` and `service` do nothing,
//! so a change to any of them must leave this workload flat.
//!
//! Known cliff the sizes avoid: `MaximalRewriting::regex()` on the blow-up
//! family takes 22 ms at `k=3`, 0.7 s at `k=4` and does not finish in minutes
//! at `k=5`, so rendering stops at `k=4`; random problems occasionally hit
//! the same cliff (one in a few thousand renders for many seconds), so the
//! typical set only admits problems whose trimmed rewriting automaton has at
//! most [`MAX_TYPICAL_STATES`] states.

use automata::{determinize_to_dense, dfa_subset_of_nfa, minimize_dense, Alphabet, DenseNfa, Nfa};
use bench::{blowup_rewriting_problem, random_problem, RandomProblemConfig};
use rand::Rng;
use regexlang::{dfa_to_regex, simplify, thompson, Regex};
use rewriter::{
    check_exactness, check_exactness_with, compute_maximal_rewriting, expand_dfa, verify_rewriting,
    verify_rewriting_regex, ExactnessStrategy, MaximalRewriting, RewriteProblem, View, ViewSet,
};

use crate::gen::{letters, shuffle, stream, Digest, SHAPE_SEED};
use crate::harness::{Call, Ctx, Parent, Workload};

/// Largest trimmed rewriting automaton admitted to the typical set.
const MAX_TYPICAL_STATES: usize = 12;
/// Largest expansion automaton of a *typical* problem on which the
/// explicit-complement exactness strategy is also run: it determinizes the
/// expansion, which on the ~12 % of random problems with a larger one takes
/// seconds or exhausts memory.  (On the hard family it stays cheap.)
const MAX_EXPLICIT_EXPANSION: usize = 400;

const TYPICAL: &str = "rewrite_typical_us";
const HARD: &str = "rewrite_hard_ms";
const RENDER: &str = "rewrite_render_ms";

/// One typical problem as the program receives it: concrete syntax.
pub struct ProblemText {
    query: String,
    views: Vec<(String, String)>,
}

/// Generated inputs and pass-1 references.
pub struct Inputs {
    sigma: Alphabet,
    typical: Vec<ProblemText>,
    typical_reference: Digest,
    hard: Vec<RewriteProblem>,
    hard_reference: Digest,
    render: Vec<MaximalRewriting>,
    render_reference: Digest,
}

/// The workload has no state beyond its inputs.
pub struct RewriteOffline;

fn parse_problem(sigma: &Alphabet, text: &ProblemText) -> RewriteProblem {
    let query = regexlang::parse(&text.query).expect("generated query parses");
    let views = text.views.iter().map(|(symbol, def)| {
        View::new(symbol.clone(), regexlang::parse(def).expect("view parses"))
    });
    let views = ViewSet::new(sigma.clone(), views).expect("generated views are well-formed");
    RewriteProblem::new(query, views).expect("generated query is over sigma")
}

/// Text → parse → problem → maximal rewriting + exactness → rendered regex.
fn solve_typical(sigma: &Alphabet, text: &ProblemText) -> (Regex, bool) {
    let problem = parse_problem(sigma, text);
    let (rewriting, exactness) = rewriter::rewrite(&problem);
    (rewriting.regex(), exactness.exact)
}

fn digest_typical(results: &[(Regex, bool)]) -> Digest {
    let mut digest = Digest::default();
    for (regex, exact) in results {
        digest.str(&regex.to_string()).u64(u64::from(*exact));
    }
    digest
}

fn solve_hard(problem: &RewriteProblem) -> (MaximalRewriting, bool) {
    let rewriting = compute_maximal_rewriting(problem);
    let exact = check_exactness(&rewriting, &problem.views).exact;
    (rewriting, exact)
}

fn digest_hard(results: &[(MaximalRewriting, bool)]) -> Digest {
    let mut digest = Digest::default();
    for (rewriting, exact) in results {
        let stats = &rewriting.stats;
        digest
            .u64(stats.query_dfa_states as u64)
            .u64(stats.a_prime_transitions as u64)
            .u64(stats.rewriting_states as u64)
            .u64(stats.rewriting_trimmed_states as u64)
            .u64(u64::from(*exact));
    }
    digest
}

fn digest_render(rendered: &[Regex]) -> Digest {
    let mut digest = Digest::default();
    for regex in rendered {
        digest.str(&regex.to_string());
    }
    digest
}

/// Pass-1 oracle for one problem: the maximal rewriting must be a rewriting
/// (Definition 2.1) and the two exactness procedures must agree.  Typical
/// problems are verified on the `rendered` expression — what the user
/// receives, and small, where the untrimmed automaton of a random problem can
/// cost seconds to expand; the blow-up family is verified on the automaton,
/// because there it is the rendering that is huge.
fn check_pass_one(ctx: &mut Ctx, what: &str, problem: &RewriteProblem, rendered: bool) {
    let rewriting = compute_maximal_rewriting(problem);
    let is_rewriting = if rendered {
        verify_rewriting_regex(problem, &rewriting.regex()).is_rewriting()
    } else {
        verify_rewriting(problem, &Nfa::from_dfa(&rewriting.automaton)).is_rewriting()
    };
    ctx.check(is_rewriting, || {
        format!("{what}: the maximal rewriting is not a rewriting")
    });
    let on_the_fly = check_exactness(&rewriting, &problem.views);
    if !rendered || on_the_fly.expansion_states <= MAX_EXPLICIT_EXPANSION {
        let explicit = check_exactness_with(
            &rewriting,
            &problem.views,
            ExactnessStrategy::ExplicitComplement,
        );
        ctx.check(on_the_fly.exact == explicit.exact, || {
            format!(
                "{what}: exactness strategies disagree ({} vs {})",
                on_the_fly.exact, explicit.exact
            )
        });
    }
}

impl Workload for RewriteOffline {
    type Inputs = Inputs;

    fn generate(ctx: &mut Ctx) -> Inputs {
        let sigma = letters(4);
        let config = RandomProblemConfig {
            alphabet_size: 4,
            query_size: 22,
            num_views: 3,
            view_size: 5,
        };
        // The typical problems are part of the shape (see `gen`): which
        // problems a draw of 1024 holds moves the block by about 5 % between
        // draws, against 1 % between runs of one draw.  The seed decides the
        // order they are solved in.
        let mut draws = stream(SHAPE_SEED, 0x7470);
        let mut typical = Vec::new();
        while typical.len() < ctx.scale.pick(1024, 48) {
            let problem = random_problem(&config, draws.gen());
            if compute_maximal_rewriting(&problem)
                .stats
                .rewriting_trimmed_states
                > MAX_TYPICAL_STATES
            {
                continue;
            }
            typical.push(ProblemText {
                query: problem.query.to_string(),
                views: problem
                    .views
                    .views()
                    .map(|v| (v.symbol.clone(), v.definition.to_string()))
                    .collect(),
            });
        }
        shuffle(&mut typical, &mut stream(ctx.seed, 0x7470));
        let mut input = Digest::default();
        for text in &typical {
            input.str(&text.query);
            for (symbol, def) in &text.views {
                input.str(symbol).str(def);
            }
        }
        ctx.digest("typical_problems", input.hex());

        let ks = ctx.scale.pick(6..=12, 4..=7);
        let hard: Vec<RewriteProblem> = ks.map(blowup_rewriting_problem).collect();
        let examples = [
            RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b"), ("e3", "c")]),
            RewriteProblem::parse("a*", [("e", "a*")]),
            RewriteProblem::parse("a·(b·a+c)*", [("e1", "a"), ("e2", "a·c*·b")]),
            RewriteProblem::parse("a·(b+c)", [("q1", "a"), ("q2", "b"), ("q3", "c")]),
        ];
        let render_problems: Vec<RewriteProblem> = ctx
            .scale
            .pick(3..=4, 3..=3)
            .map(blowup_rewriting_problem)
            .chain(
                examples
                    .into_iter()
                    .map(|p| p.expect("paper example parses")),
            )
            .collect();

        // Pass 1: oracles, then the reference digests later passes are
        // compared with.
        for (i, text) in typical.iter().enumerate() {
            check_pass_one(
                ctx,
                &format!("typical #{i}"),
                &parse_problem(&sigma, text),
                true,
            );
        }
        for (i, problem) in hard.iter().enumerate() {
            check_pass_one(ctx, &format!("blow-up #{i}"), problem, false);
        }
        for (i, problem) in render_problems.iter().enumerate() {
            check_pass_one(ctx, &format!("render #{i}"), problem, false);
        }
        let typical_results: Vec<(Regex, bool)> = typical
            .iter()
            .map(|text| solve_typical(&sigma, text))
            .collect();
        let hard_results: Vec<(MaximalRewriting, bool)> = hard.iter().map(solve_hard).collect();
        let render: Vec<MaximalRewriting> = render_problems
            .iter()
            .map(compute_maximal_rewriting)
            .collect();
        let rendered: Vec<Regex> = render.iter().map(MaximalRewriting::regex).collect();
        let inputs = Inputs {
            sigma,
            typical,
            typical_reference: digest_typical(&typical_results),
            hard,
            hard_reference: digest_hard(&hard_results),
            render,
            render_reference: digest_render(&rendered),
        };
        ctx.digest("typical_rewritings", inputs.typical_reference.hex());
        ctx.digest("hard_rewritings", inputs.hard_reference.hex());
        ctx.digest("rendered", inputs.render_reference.hex());
        inputs
    }

    fn setup(_inputs: &Inputs, _ctx: &mut Ctx) -> Self {
        RewriteOffline
    }

    fn round(&mut self, inputs: &Inputs, ctx: &mut Ctx) {
        let results = ctx.unit(
            TYPICAL,
            "rewriter",
            "rewriter::rewrite + regex",
            inputs.typical.len(),
            || {
                inputs
                    .typical
                    .iter()
                    .map(|text| solve_typical(&inputs.sigma, text))
                    .collect::<Vec<_>>()
            },
        );
        ctx.check(digest_typical(&results) == inputs.typical_reference, || {
            "typical rewritings differ from pass 1".to_string()
        });

        let results = ctx.unit(
            HARD,
            "rewriter",
            "compute_maximal_rewriting + check_exactness",
            1,
            || inputs.hard.iter().map(solve_hard).collect::<Vec<_>>(),
        );
        ctx.check(digest_hard(&results) == inputs.hard_reference, || {
            "hard rewritings differ from pass 1".to_string()
        });

        let rendered = ctx.unit(RENDER, "rewriter", "MaximalRewriting::regex", 1, || {
            inputs
                .render
                .iter()
                .map(MaximalRewriting::regex)
                .collect::<Vec<_>>()
        });
        ctx.check(digest_render(&rendered) == inputs.render_reference, || {
            "rendered rewritings differ from pass 1".to_string()
        });
    }

    fn replay(&mut self, inputs: &Inputs, ctx: &mut Ctx) {
        use std::hint::black_box;
        let n = inputs.typical.len();

        // Typical set: parse, then the construction and its parts.
        ctx.replay(
            Call::part("regexlang.parse_us", "regexlang", "regexlang::parse"),
            Parent::Unit(TYPICAL),
            n,
            || {
                for text in &inputs.typical {
                    black_box(regexlang::parse(&text.query).expect("parses"));
                    for (_, def) in &text.views {
                        black_box(regexlang::parse(def).expect("parses"));
                    }
                }
            },
        );
        let parsed: Vec<RewriteProblem> = inputs
            .typical
            .iter()
            .map(|text| parse_problem(&inputs.sigma, text))
            .collect();
        let maximal = ctx.replay(
            Call::part(
                "rewriter.maximal_typical_us",
                "rewriter",
                "compute_maximal_rewriting",
            ),
            Parent::Unit(TYPICAL),
            n,
            || {
                parsed
                    .iter()
                    .map(compute_maximal_rewriting)
                    .collect::<Vec<_>>()
            },
        );
        let exact = parsed
            .iter()
            .zip(&maximal.out)
            .filter(|(problem, rewriting)| check_exactness(rewriting, &problem.views).exact)
            .count();
        ctx.count("rewriter.exact_share", exact as f64 / n as f64);
        let under_maximal = Parent::Span(maximal.span);
        let nfas = ctx
            .replay(
                Call::part("regexlang.thompson_us", "regexlang", "regexlang::thompson"),
                under_maximal,
                n,
                || {
                    parsed
                        .iter()
                        .map(|p| thompson(&p.query, p.views.sigma()).expect("over sigma"))
                        .collect::<Vec<_>>()
                },
            )
            .out;
        let frozen = ctx
            .replay(
                Call::part("automata.freeze_us", "automata", "DenseNfa::from_nfa"),
                under_maximal,
                n,
                || nfas.iter().map(DenseNfa::from_nfa).collect::<Vec<_>>(),
            )
            .out;
        ctx.replay(
            Call::part(
                "automata.det_min_typical_us",
                "automata",
                "determinize + minimize",
            ),
            under_maximal,
            n,
            || {
                for dense in &frozen {
                    black_box(minimize_dense(&determinize_to_dense(dense).dfa));
                }
            },
        );

        // Hard family: the construction with its subset construction and
        // minimization, then the exactness check with its two halves.
        let hard = &inputs.hard;
        let maximal = ctx.replay(
            Call::part(
                "rewriter.maximal_ms",
                "rewriter",
                "compute_maximal_rewriting",
            ),
            Parent::Unit(HARD),
            1,
            || {
                hard.iter()
                    .map(compute_maximal_rewriting)
                    .collect::<Vec<_>>()
            },
        );
        let under_maximal = Parent::Span(maximal.span);
        let nfas = ctx.replay(
            Call::unmetered("regexlang", "regexlang::thompson"),
            under_maximal,
            1,
            || {
                hard.iter()
                    .map(|p| {
                        DenseNfa::from_nfa(
                            &thompson(&p.query, p.views.sigma()).expect("over sigma"),
                        )
                    })
                    .collect::<Vec<_>>()
            },
        );
        let determinized = ctx.replay(
            Call::part("automata.determinize_ms", "automata", "determinize"),
            under_maximal,
            1,
            || {
                nfas.out
                    .iter()
                    .map(|dense| determinize_to_dense(dense).dfa)
                    .collect::<Vec<_>>()
            },
        );
        let minimized = ctx.replay(
            Call::part("automata.minimize_ms", "automata", "minimize"),
            under_maximal,
            1,
            || {
                for dfa in &determinized.out {
                    black_box(minimize_dense(dfa));
                }
            },
        );
        ctx.sample(
            "rewriter.maximal_self_ms",
            (maximal.ms - nfas.ms - determinized.ms - minimized.ms).max(0.0),
        );
        let exactness = ctx.replay(
            Call::part(
                "rewriter.exactness_ms",
                "rewriter",
                "check_exactness (on the fly)",
            ),
            Parent::Unit(HARD),
            1,
            || {
                for (problem, rewriting) in hard.iter().zip(&maximal.out) {
                    black_box(check_exactness(rewriting, &problem.views));
                }
            },
        );
        let expansions = ctx
            .replay(
                Call::part("rewriter.expand_ms", "rewriter", "expand_dfa"),
                Parent::Span(exactness.span),
                1,
                || {
                    hard.iter()
                        .zip(&maximal.out)
                        .map(|(problem, rewriting)| {
                            expand_dfa(&rewriting.automaton, &problem.views)
                        })
                        .collect::<Vec<_>>()
                },
            )
            .out;
        ctx.replay(
            Call::part("automata.containment_ms", "automata", "dfa_subset_of_nfa"),
            Parent::Span(exactness.span),
            1,
            || {
                for (rewriting, expansion) in maximal.out.iter().zip(&expansions) {
                    black_box(dfa_subset_of_nfa(&rewriting.query_dfa, expansion));
                }
            },
        );
        ctx.replay(
            Call::info(
                "rewriter.exactness_explicit_ms",
                "rewriter",
                "check_exactness (explicit complement)",
            ),
            Parent::Unit(HARD),
            1,
            || {
                for (problem, rewriting) in hard.iter().zip(&maximal.out) {
                    black_box(check_exactness_with(
                        rewriting,
                        &problem.views,
                        ExactnessStrategy::ExplicitComplement,
                    ));
                }
            },
        );
        let sum =
            |f: fn(&MaximalRewriting) -> usize| maximal.out.iter().map(f).sum::<usize>() as f64;
        ctx.count("automata.dfa_states", sum(|r| r.stats.query_dfa_states));
        ctx.count(
            "rewriter.rewriting_states",
            sum(|r| r.stats.rewriting_states),
        );
        ctx.count(
            "rewriter.rewriting_trimmed_states",
            sum(|r| r.stats.rewriting_trimmed_states),
        );
        ctx.count(
            "rewriter.a_prime_transitions",
            sum(|r| r.stats.a_prime_transitions),
        );

        // Render set: state elimination, then simplification.
        let raw = ctx
            .replay(
                Call::part("regexlang.state_elim_ms", "regexlang", "dfa_to_regex"),
                Parent::Unit(RENDER),
                1,
                || {
                    inputs
                        .render
                        .iter()
                        .map(|r| dfa_to_regex(&r.automaton))
                        .collect::<Vec<_>>()
                },
            )
            .out;
        let rendered = ctx
            .replay(
                Call::part("regexlang.simplify_ms", "regexlang", "simplify"),
                Parent::Unit(RENDER),
                1,
                || raw.iter().map(simplify).collect::<Vec<_>>(),
            )
            .out;
        ctx.count(
            "regexlang.rendered_size",
            rendered.iter().map(Regex::size).sum::<usize>() as f64,
        );
    }

    fn teardown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn a_corrupted_reference_digest_counts_as_failed() {
        let mut ctx = Ctx::new(3, Scale::Check, false);
        let mut inputs = RewriteOffline::generate(&mut ctx);
        let mut world = RewriteOffline::setup(&inputs, &mut ctx);
        world.round(&inputs, &mut ctx);
        assert_eq!(ctx.failed, 0, "an honest round passes every oracle");
        let attempted = ctx.attempted;
        inputs.typical_reference = *Digest::default().str("not the pass-1 digest");
        world.round(&inputs, &mut ctx);
        assert_eq!(
            ctx.failed, 1,
            "the typical block no longer matches its reference"
        );
        assert_eq!(ctx.attempted, attempted + 3);
    }

    #[test]
    fn typical_problems_round_trip_through_concrete_syntax() {
        let mut ctx = Ctx::new(3, Scale::Check, false);
        let inputs = RewriteOffline::generate(&mut ctx);
        for text in &inputs.typical {
            let problem = parse_problem(&inputs.sigma, text);
            assert_eq!(problem.query.to_string(), text.query);
            assert_eq!(problem.views.len(), 3);
        }
    }
}
