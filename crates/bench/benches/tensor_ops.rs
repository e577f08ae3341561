//! Micro-benchmarks of the tensor substrate (matmul, softmax, gather) and of
//! the `Conv2d` layer that dominates an image-task round.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mhfl_nn::{Conv2d, Layer};
use mhfl_tensor::{SeededRng, Tensor};

fn bench_tensor_ops(c: &mut Criterion) {
    let mut rng = SeededRng::new(0);
    let a = Tensor::randn(&[64, 64], 1.0, &mut rng);
    let b = Tensor::randn(&[64, 64], 1.0, &mut rng);
    c.bench_function("matmul_64x64", |bench| {
        bench.iter(|| black_box(a.matmul(&b).unwrap()))
    });
    // A training-step-sized product, and the transpose-aware variant vs.
    // materialising the transpose.
    let x = Tensor::randn(&[64, 256], 1.0, &mut rng);
    let w = Tensor::randn(&[256, 256], 0.1, &mut rng);
    c.bench_function("matmul_64x256x256", |bench| {
        bench.iter(|| black_box(x.matmul(&w).unwrap()))
    });
    c.bench_function("matmul_nt_64x256x256", |bench| {
        bench.iter(|| black_box(x.matmul_nt(&w).unwrap()))
    });
    c.bench_function("matmul_transpose_then_matmul_64x256x256", |bench| {
        bench.iter(|| black_box(x.matmul(&w.transpose().unwrap()).unwrap()))
    });
    let logits = Tensor::randn(&[128, 100], 1.0, &mut rng);
    c.bench_function("softmax_rows_128x100", |bench| {
        bench.iter(|| black_box(logits.softmax_rows().unwrap()))
    });
    let big = Tensor::randn(&[256, 64], 1.0, &mut rng);
    let idx: Vec<usize> = (0..128).collect();
    c.bench_function("gather_axis0_128_of_256", |bench| {
        bench.iter(|| black_box(big.gather_axis0(&idx).unwrap()))
    });
}

/// `Conv2d` at the shapes the image proxy models run: the stem (3 → 12
/// channels), a 12 → 12 block at a training batch of 16, and the same block
/// at an evaluation chunk of 128 (forward only, as evaluation runs).
fn bench_conv2d(c: &mut Criterion) {
    let mut rng = SeededRng::new(1);
    let cases = [
        ("stem_16x3x8x8_to_12", [16, 3, 8, 8], 12, true),
        ("block_16x12x8x8_to_12", [16, 12, 8, 8], 12, true),
        ("block_eval_128x12x8x8_to_12", [128, 12, 8, 8], 12, false),
    ];
    for (name, dims, out_channels, train) in cases {
        let mut conv = Conv2d::new(dims[1], out_channels, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::randn(&dims, 1.0, &mut rng);
        c.bench_function(&format!("conv2d_forward_{name}"), |bench| {
            bench.iter(|| black_box(conv.forward(&x, train).unwrap()))
        });
        if train {
            let dy = Tensor::randn(conv.forward(&x, true).unwrap().dims(), 1.0, &mut rng);
            c.bench_function(&format!("conv2d_backward_{name}"), |bench| {
                bench.iter(|| black_box(conv.backward(&dy).unwrap()))
            });
        }
    }
}

criterion_group!(benches, bench_tensor_ops, bench_conv2d);
criterion_main!(benches);
