//! The feedback decode loop the serving-shape benches time: decode a
//! prompt, then feed [`feedback_embedding`] of each row's last hidden
//! state back as that row's next token.

use std::time::Instant;

use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::{GemmBackend, PagedKvCache, TransformerModel};
use pdac_serve::feedback_embedding;

/// `len` seeded `rows × hidden` token matrices, uniform in `[-1, 1)`.
pub fn random_prompt(rows: usize, hidden: usize, len: usize, seed: u64) -> Vec<Mat> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| Mat::from_fn(rows, hidden, |_, _| rng.gen_range_f64(-1.0, 1.0)))
        .collect()
}

/// The next step's token rows: [`feedback_embedding`] of each row of
/// `last`.
pub fn feedback_batch(last: &Mat) -> Mat {
    let (rows, hidden) = (last.rows(), last.cols());
    let mut data = Vec::with_capacity(rows * hidden);
    for r in 0..rows {
        data.extend(feedback_embedding(last.row_slice(r)));
    }
    Mat::from_rows(rows, hidden, data).expect("feedback batch")
}

/// Runs `step` on each token matrix of `prompt`, then `gen` more times
/// on [`feedback_batch`] of the previous step's result, and returns the
/// last result. `step` decodes one batch of token rows into hidden rows.
///
/// # Panics
///
/// Panics if `prompt` is empty.
pub fn decode_feedback(prompt: &[Mat], gen: usize, mut step: impl FnMut(&Mat) -> Mat) -> Mat {
    let mut last = prompt
        .iter()
        .map(&mut step)
        .last()
        .expect("at least one prompt token");
    for _ in 0..gen {
        last = step(&feedback_batch(&last));
    }
    last
}

/// [`decode_feedback`] through [`TransformerModel::decode_batch`] on
/// `cache`, timed. Returns the elapsed seconds and the last hidden rows.
pub fn timed_decode(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    cache: &mut PagedKvCache,
    prompt: &[Mat],
    gen: usize,
) -> (f64, Mat) {
    let start = Instant::now();
    let last = decode_feedback(prompt, gen, |tokens| {
        model.decode_batch(tokens, cache, backend)
    });
    (start.elapsed().as_secs_f64(), last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_nn::{ExactGemm, PagedConfig, TransformerConfig};

    #[test]
    fn feedback_loop_matches_the_hand_written_loop() {
        let model = TransformerModel::random(TransformerConfig::tiny(), 4, 3);
        let hidden = model.config().hidden;
        let prompt = random_prompt(2, hidden, 3, 9);
        let mut cache = PagedKvCache::new(&model, 2, PagedConfig::default());
        let (_, got) = timed_decode(&model, &ExactGemm, &mut cache, &prompt, 2);
        assert_eq!(cache.seq_len(0), 5);

        let mut cache = PagedKvCache::new(&model, 2, PagedConfig::default());
        let mut last = Mat::zeros(1, 1);
        for tok in &prompt {
            last = model.decode_batch(tok, &mut cache, &ExactGemm);
        }
        for _ in 0..2 {
            let rows: Vec<f64> = (0..2)
                .flat_map(|r| feedback_embedding(last.row_slice(r)))
                .collect();
            let next = Mat::from_rows(2, hidden, rows).unwrap();
            last = model.decode_batch(&next, &mut cache, &ExactGemm);
        }
        assert_eq!(got, last);
    }

    #[test]
    #[should_panic(expected = "at least one prompt token")]
    fn empty_prompt_is_rejected() {
        decode_feedback(&[], 1, |tokens| tokens.clone());
    }
}
