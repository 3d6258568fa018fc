//! Closed-loop driving: each connection sends its share of a sequence in
//! order, each request as soon as the previous answer arrived.

use crate::workload::Req;
use std::time::Duration;

/// Splits `reqs` over `conns` threads by `Req::conn`, runs `f` on each
/// thread's `(index, request)` list, and returns the results by index.
/// `f` returns one result per request it was given, `None` for a request
/// it did not send.
pub fn fan_out<S, T, F>(reqs: &[Req], states: Vec<S>, f: F) -> Vec<Option<T>>
where
    S: Send,
    T: Send,
    F: Fn(S, &[(usize, &Req)]) -> Vec<Option<T>> + Sync,
{
    let mut shares: Vec<Vec<(usize, &Req)>> = states.iter().map(|_| Vec::new()).collect();
    for (i, req) in reqs.iter().enumerate() {
        shares[req.conn].push((i, req));
    }
    let mut out: Vec<Option<T>> = reqs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .zip(&shares)
            .map(|(state, share)| {
                let f = &f;
                scope.spawn(move || f(state, share))
            })
            .collect();
        for (handle, share) in handles.into_iter().zip(&shares) {
            let results = handle.join().expect("client thread panicked");
            for ((i, _), result) in share.iter().zip(results) {
                out[*i] = result;
            }
        }
    });
    out
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
