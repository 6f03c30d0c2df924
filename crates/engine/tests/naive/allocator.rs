//! The iterative separable allocator of §V as first written — input
//! stage then output stage, least-recently-served arbiters at both —
//! before the engine moved eligibility into request collection and its
//! matched sets into bit words. It is the referee's allocator and no
//! longer lives anywhere else.

use ofar_engine::Request;

/// Match the requests of one router turn to outputs. `asked` holds every
/// request collection produced, in input-port order; each iteration
/// re-tests every one with `grantable`, picks per input the
/// least-recently-served VC (`vc_stamp(port, vc)`) whose output is still
/// free, then per output the least-recently-served proposing input
/// (`in_stamp(out, port)`); the first of equal stamps wins. The grants
/// come in ascending output order within an iteration.
pub fn allocate(
    asked: &[(u16, u8, Request)],
    grantable: impl Fn(Request) -> bool,
    vc_stamp: impl Fn(usize, usize) -> u64,
    in_stamp: impl Fn(usize, usize) -> u64,
    n_in: usize,
    n_out: usize,
    iters: usize,
) -> Vec<(u16, u8, Request)> {
    let mut inputs_matched = vec![false; n_in];
    let mut outputs_matched = vec![false; n_out];
    let mut best_out: Vec<Option<(u64, u16, usize)>> = vec![None; n_out];
    let mut grants = Vec::new();
    for _ in 0..iters {
        best_out.iter_mut().for_each(|b| *b = None);
        let mut any = false;
        let mut i = 0;
        while i < asked.len() {
            let in_port = asked[i].0;
            let mut j = i;
            while j < asked.len() && asked[j].0 == in_port {
                j += 1;
            }
            if !inputs_matched[in_port as usize] {
                let mut pick: Option<(u64, usize)> = None;
                for (idx, &(_, vc, req)) in asked[i..j].iter().enumerate().map(|(k, r)| (i + k, r))
                {
                    let out = req.out_port as usize;
                    if outputs_matched[out] || !grantable(req) {
                        continue;
                    }
                    let stamp = vc_stamp(in_port as usize, vc as usize);
                    if pick.is_none_or(|(s, _)| stamp < s) {
                        pick = Some((stamp, idx));
                    }
                }
                if let Some((_, idx)) = pick {
                    let out = asked[idx].2.out_port as usize;
                    let stamp = in_stamp(out, in_port as usize);
                    if best_out[out].is_none_or(|(s, _, _)| stamp < s) {
                        best_out[out] = Some((stamp, in_port, idx));
                    }
                }
            }
            i = j;
        }
        for out in 0..n_out {
            if let Some((_, in_port, idx)) = best_out[out] {
                inputs_matched[in_port as usize] = true;
                outputs_matched[out] = true;
                grants.push(asked[idx]);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    grants
}
