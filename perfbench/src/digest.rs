//! Output digests the benchmark checks results against.

use twodprof_engine::payload_checksum;

/// Removes the Figure 16 block from `repro` stdout: the block's header
/// line through the blank line that ends it. Figure 16 times the
/// instrumentation modes on the wall clock, so it is the one part of a
/// `repro all` report that differs between two runs of the same build.
pub fn strip_fig16(stdout: &str) -> String {
    let mut out = String::with_capacity(stdout.len());
    let mut in_block = false;
    for line in stdout.split_inclusive('\n') {
        if line.starts_with("== Figure 16:") {
            in_block = true;
        }
        if !in_block {
            out.push_str(line);
        } else if line.trim().is_empty() {
            in_block = false;
        }
    }
    out
}

/// Digest of a text output.
pub fn text_digest(text: &str) -> u64 {
    payload_checksum(text.as_bytes())
}

/// Order-independent digest of job results, each given as its spec's
/// content hash and its payload bytes: results are sorted by spec hash
/// before folding, so any submission or completion order gives the same
/// digest.
pub fn payload_digest<'a>(results: impl IntoIterator<Item = (u64, &'a [u8])>) -> u64 {
    let mut rows: Vec<(u64, u64, usize)> = results
        .into_iter()
        .map(|(spec, payload)| (spec, payload_checksum(payload), payload.len()))
        .collect();
    rows.sort_unstable();
    let mut bytes = Vec::with_capacity(rows.len() * 24);
    for (spec, sum, len) in rows {
        bytes.extend_from_slice(&spec.to_le_bytes());
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes.extend_from_slice(&(len as u64).to_le_bytes());
    }
    payload_checksum(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_block_is_removed_and_nothing_else() {
        let report = "# header\n\n== Figure 15: a ==\nrow 1\n\n\
                      == Figure 16: normalized execution time ==\nbenchmark  Binary\n\
                      ------\n    bzip2   1.00x     0.93x\n\n== Ablation: b ==\nrow 2\n";
        let stripped = strip_fig16(report);
        assert_eq!(
            stripped,
            "# header\n\n== Figure 15: a ==\nrow 1\n\n== Ablation: b ==\nrow 2\n"
        );
        // two runs differing only in the timing figure strip identically
        let other = report.replace("0.93x", "1.07x");
        assert_ne!(text_digest(report), text_digest(&other));
        assert_eq!(text_digest(&stripped), text_digest(&strip_fig16(&other)));
    }

    #[test]
    fn fig16_strip_is_identity_without_the_block() {
        let report = "== Figure 2: x ==\nrow\n\n== Figure 3: y ==\nrow\n";
        assert_eq!(strip_fig16(report), report);
    }

    #[test]
    fn payload_digest_ignores_job_order() {
        let jobs: Vec<(u64, Vec<u8>)> = (0..50u64)
            .map(|i| {
                (
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    vec![i as u8; i as usize],
                )
            })
            .collect();
        let forward = payload_digest(jobs.iter().map(|(h, p)| (*h, p.as_slice())));
        let mut shuffled = jobs.clone();
        workloads::Xoshiro256::seed_from_u64(7).shuffle(&mut shuffled);
        assert_ne!(jobs, shuffled);
        let reordered = payload_digest(shuffled.iter().map(|(h, p)| (*h, p.as_slice())));
        assert_eq!(forward, reordered);
        // one changed payload byte changes the digest
        shuffled[3].1.push(1);
        let changed = payload_digest(shuffled.iter().map(|(h, p)| (*h, p.as_slice())));
        assert_ne!(forward, changed);
    }
}
