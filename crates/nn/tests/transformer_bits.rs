//! Pins the Transformer's forward loss and every gradient bit for one
//! fixed seed and batch.
//!
//! The tensor layer promises that its fast paths (stride-walking
//! `permute` and broadcasting, the SIMD GEMM microkernel, row-wise
//! layer-norm backward) compute every element exactly as the
//! straightforward loops do. This test holds the whole model to that:
//! the pinned values below were recorded on the index-arithmetic
//! implementation (per-element `unravel` for `permute` and
//! broadcasting, scalar FMA loop for products under 2¹⁶ flops, the
//! index-list layer-norm backward) before any of those paths changed,
//! so any reordering of a sum or a rounding anywhere in the model
//! fails here.
//!
//! The shapes are the benchmark Transformer's: dim 64, 4 heads, ff 128,
//! 2+2 layers, 8 sentences of 12–16 tokens with padding, so the
//! per-head products (≈4.6k–9.2k flops) run blocked where they once ran
//! on the scalar loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pipemare_nn::transformer::{BOS, EOS, PAD};
use pipemare_nn::{SeqBatch, TrainModel, Transformer, TransformerConfig};
use pipemare_tensor::Tensor;

const VOCAB: usize = 27;
const SENTENCES: usize = 8;
const MIN_LEN: usize = 12;
const MAX_LEN: usize = 16;

/// Recorded `loss.to_bits()`.
const LOSS_BITS: u32 = 0x4097_9367;
/// Recorded FNV-1a 64 hash of every gradient's bits, in parameter order.
const GRAD_HASH: u64 = 0xc369_acbb_da80_b23e;

fn model() -> Transformer {
    Transformer::new(TransformerConfig {
        src_vocab: VOCAB,
        tgt_vocab: VOCAB,
        dim: 64,
        heads: 4,
        ff_dim: 128,
        enc_layers: 2,
        dec_layers: 2,
        label_smoothing: 0.1,
    })
}

/// Reverse-translation batch: random content tokens, target is the
/// reversed source plus EOS, all right-padded to the longest sentence.
fn batch(rng: &mut StdRng) -> SeqBatch {
    let sents: Vec<Vec<usize>> = (0..SENTENCES)
        .map(|_| {
            let len = rng.gen_range(MIN_LEN..=MAX_LEN);
            (0..len).map(|_| rng.gen_range(3..VOCAB)).collect()
        })
        .collect();
    let ts = sents.iter().map(Vec::len).max().unwrap();
    let tt = ts + 1;
    let mut src = vec![PAD as f32; SENTENCES * ts];
    let mut tgt_in = vec![PAD as f32; SENTENCES * tt];
    let mut tgt_out = vec![PAD; SENTENCES * tt];
    for (b, s) in sents.iter().enumerate() {
        let mut tgt: Vec<usize> = s.iter().rev().copied().collect();
        tgt.push(EOS);
        for (t, &id) in s.iter().enumerate() {
            src[b * ts + t] = id as f32;
        }
        tgt_in[b * tt] = BOS as f32;
        for (t, &id) in tgt.iter().enumerate() {
            if t + 1 < tgt.len() {
                tgt_in[b * tt + t + 1] = id as f32;
            }
            tgt_out[b * tt + t] = id;
        }
    }
    SeqBatch {
        src: Tensor::from_vec(src, &[SENTENCES, ts]),
        tgt_in: Tensor::from_vec(tgt_in, &[SENTENCES, tt]),
        tgt_out,
        src_lens: sents.iter().map(Vec::len).collect(),
        pad_id: PAD,
    }
}

fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn transformer_loss_and_gradient_bits_are_pinned() {
    let model = model();
    let mut rng = StdRng::seed_from_u64(14);
    let mut params = vec![0.0f32; model.param_len()];
    model.init_params(&mut params, &mut rng);
    let batch = batch(&mut rng);
    let (loss, cache) = model.forward_loss(&params, &batch);
    let grads = model.backward(&params, &cache);
    let hash = fnv1a(grads.iter().map(|g| g.to_bits()));
    assert_eq!(loss.to_bits(), LOSS_BITS, "loss {loss} moved");
    assert_eq!(hash, GRAD_HASH, "gradient bits moved");
}
