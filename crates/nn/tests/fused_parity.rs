//! Differential tests for the fused graph nodes.
//!
//! `LayerNorm` and `MultiHeadAttention` run as single fused nodes; the
//! primitive-op compositions they replace survive as the reference
//! oracle, selected by `mlperf_tensor::oracle::reference`. The fused
//! implementations are required to be *bit-identical* to the
//! compositions — in the forward value AND in every gradient — because
//! the trajectory-identity test holds whole training runs to the
//! oracle. These tests run the same layer both ways and compare raw
//! `f32` bits, no tolerance.

use mlperf_autograd::Var;
use mlperf_nn::{causal_mask, LayerNorm, Module, MultiHeadAttention};
use mlperf_tensor::oracle::reference;
use mlperf_tensor::{Tensor, TensorRng};

fn assert_bits_equal(label: &str, reference: &Tensor, fused: &Tensor) {
    assert_eq!(reference.shape(), fused.shape(), "{label}: shape mismatch");
    for (i, (r, f)) in reference.data().iter().zip(fused.data()).enumerate() {
        assert_eq!(r.to_bits(), f.to_bits(), "{label}: element {i} diverged: {r} vs {f}");
    }
}

/// A layer's forward value and the gradients of `inputs` then `params`.
type Outcome = (Tensor, Vec<Tensor>);

/// Runs `f` from a fresh `seed` on the oracle and on the production
/// path, and asserts bitwise equality of the outcomes.
fn assert_parity(seed: u64, f: impl Fn(&mut TensorRng) -> Outcome) {
    let (ref_out, ref_grads) = reference(|| f(&mut TensorRng::new(seed)));
    let (out, grads) = f(&mut TensorRng::new(seed));
    assert_bits_equal("forward", &ref_out, &out);
    assert_eq!(ref_grads.len(), grads.len());
    for (i, (r, g)) in ref_grads.iter().zip(&grads).enumerate() {
        assert_bits_equal(&format!("grad {i}"), r, g);
    }
}

/// Backpropagates `y.sum()` and collects the gradients of `vars`.
fn outcome(y: &Var, vars: &[Var]) -> Outcome {
    y.sum().backward();
    let grads = vars.iter().map(|p| p.grad().expect("gradient missing")).collect();
    (y.value_clone(), grads)
}

/// Asserts bitwise parity of a layer applied to one input of `shape`.
fn assert_layer_parity(
    shape: &[usize],
    seed: u64,
    f: impl Fn(&mut TensorRng, &Var) -> (Var, Vec<Var>),
) {
    assert_parity(seed, |rng| {
        let x = Var::param(rng.normal(shape, 0.0, 1.0));
        let (y, params) = f(rng, &x);
        let vars: Vec<Var> = std::iter::once(x).chain(params).collect();
        outcome(&y, &vars)
    });
}

#[test]
fn layernorm_fused_matches_composition() {
    for shape in [&[16usize, 12, 16][..], &[5, 16][..], &[3, 7, 9][..], &[2, 3, 4, 8][..]] {
        assert_layer_parity(shape, 11, |_, x| {
            let ln = LayerNorm::new(*shape.last().unwrap());
            (ln.forward(x), ln.params())
        });
    }
}

#[test]
fn attention_fused_matches_composition() {
    for (b, t, d, h) in [(16usize, 12usize, 16usize, 2usize), (2, 5, 8, 4), (1, 3, 6, 1)] {
        assert_layer_parity(&[b, t, d], 13, |rng, x| {
            let mha = MultiHeadAttention::new(d, h, rng);
            (mha.self_attention(x, None), mha.params())
        });
    }
}

#[test]
fn masked_attention_fused_matches_composition() {
    assert_layer_parity(&[3, 6, 8], 17, |rng, x| {
        let mha = MultiHeadAttention::new(8, 2, rng);
        (mha.self_attention(x, Some(&causal_mask(6))), mha.params())
    });
}

#[test]
fn cross_attention_fused_matches_composition() {
    // Distinct query and key/value lengths exercise the tq != tk paths.
    assert_parity(19, |rng| {
        let q = Var::param(rng.normal(&[2, 4, 8], 0.0, 1.0));
        let kv = Var::param(rng.normal(&[2, 7, 8], 0.0, 1.0));
        let mha = MultiHeadAttention::new(8, 2, rng);
        let y = mha.forward(&q, &kv, &kv, None);
        let vars: Vec<Var> = [q, kv].into_iter().chain(mha.params()).collect();
        outcome(&y, &vars)
    });
}
