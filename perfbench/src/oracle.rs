//! The one answer check the serve and stream phases share: the expected
//! answer to every request comes from the truth arrays (point lookups)
//! or from the single-node [`Interpreter`] (every plan, including the
//! legacy k-hop / top-k shapes through their `Plan` constructors).

use psgraph_serve::{GraphTruth, Interpreter, Plan, PlanOutput, Query, Value};

/// One generated request: a legacy query shape or a compound plan.
#[derive(Debug, Clone)]
pub enum Request {
    Q(Query),
    P(Plan),
}

/// The answer the tier must give to `req`; `None` when the truth cannot
/// answer it (the tier must then fail the request, never answer it).
pub fn expected(truth: &GraphTruth, interp: &Interpreter<'_>, req: &Request) -> Option<Value> {
    let at = |v: u64| v as usize;
    match req {
        Request::Q(Query::Rank(v)) => truth.ranks.as_ref()?.get(at(*v)).copied().map(Value::Rank),
        Request::Q(Query::Community(v)) => truth
            .communities
            .as_ref()?
            .get(at(*v))
            .copied()
            .map(Value::Community),
        Request::Q(Query::Embedding(v)) => truth
            .embeddings
            .as_ref()?
            .get(at(*v))
            .cloned()
            .map(Value::Embedding),
        Request::Q(Query::Neighbors(v)) => truth
            .adjacency
            .as_ref()?
            .get(at(*v))
            .cloned()
            .map(Value::Neighbors),
        Request::Q(Query::KHop { v, hops }) => plan_value(interp, &Plan::khop(*v, *hops)),
        Request::Q(Query::TopK { v, k }) => plan_value(interp, &Plan::topk(*v, *k)),
        Request::Q(Query::TopKAll { v, k }) => plan_value(interp, &Plan::topk_all(*v, *k)),
        Request::P(plan) => plan_value(interp, plan),
    }
}

fn plan_value(interp: &Interpreter<'_>, plan: &Plan) -> Option<Value> {
    match interp.run(plan).ok()? {
        PlanOutput::Vertices(ids) => Some(Value::Vertices(ids)),
        PlanOutput::Ranked(rows) => Some(Value::Ranked(rows)),
    }
}

/// Bit-exact equality of two answers: float payloads compare by bits,
/// so `-0.0`, `NaN` or a last-ulp difference all count as wrong.
pub fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Rank(x), Value::Rank(y)) => x.to_bits() == y.to_bits(),
        (Value::Embedding(x), Value::Embedding(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Value::Ranked(x), Value::Ranked(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((u, s), (w, t))| u == w && s.to_bits() == t.to_bits())
        }
        _ => a == b,
    }
}
