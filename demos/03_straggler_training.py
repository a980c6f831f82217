#!/usr/bin/env python3
"""End-to-end simulation: encode, train through stragglers, compare policies.

Builds a synthetic federated regression instance, uploads noisy Gram
matrices once, then trains with 30% stragglers per iteration.  The same
seeds (dataset, coding noise, straggler masks) drive an adaptive-weight
run and a fixed-weight baseline, so any difference is the policy's doing.
"""

import numpy as np

from acfl import (
    AdaptiveEstimated,
    FixedWeight,
    InverseDecay,
    NoiseParams,
    RngStream,
    encode_levels,
    generate,
    loss,
    optimum,
    payload_size,
    train,
)

N, M, D, O = 20, 40, 6, 4
P = 0.3
STEPS = 1500
root = RngStream(12345)

print("=" * 64)
print("1. the instance and its ground truth")
print("=" * 64)
ds = generate(N, M, D, O, root.child("dataset"))
facts = optimum(ds)
print(f"{N} devices x {M} samples, d={D}, o={O}")
print(f"strong convexity lam = {facts.lam:.3f}, optimal loss = {facts.loss_at_optimum:.3g}")
print(f"raw upload would be m*(d+o) = {M * (D + O)} reals per device;")
print(f"coded upload is d^2 + o*d = {payload_size(D, O)} reals regardless of m")
print()

print("=" * 64)
print("2. one-time encoding at two noise levels")
print("=" * 64)
coded, policies, labels = [], [], []
for sigma_sq in (0.1, 10.0):
    noise = NoiseParams(sigma_sq, sigma_sq)
    (sums,) = encode_levels(ds, [noise], root.child("encode"))
    for label, policy in (("adaptive", AdaptiveEstimated()), ("fixed 0.5", FixedWeight(0.5))):
        coded.append(sums)
        policies.append(policy)
        labels.append((sigma_sq, label))
# train takes a group of replicates, here one: each arm's coded sums per
# replicate, and one policy per arm for them all.  One loop advances all
# four arms on the same straggler masks.
(traces,) = train(
    [ds], [coded], policies, P, STEPS, [InverseDecay(1e-3)], [root.child("train")], [facts]
)
results = dict(zip(labels, traces))
for (sigma_sq, label), trace in results.items():
    print(
        f"sigma^2={sigma_sq:<5g} {label:<9} loss {trace.loss[0]:8.3f} -> "
        f"{loss(trace.final_w, ds, facts):10.6f}   mean alpha {trace.alpha.mean():.4f}"
    )
print()
print("Both policies see identical data, coding noise, and straggler draws")
print("(same streams). At low noise the coded gradient is nearly exact and")
print("both do fine; at high noise the fixed weight keeps injecting noise")
print("into every update while the adaptive weight backs off.")
print()

print("=" * 64)
print("3. what the adaptive weight did")
print("=" * 64)
for sigma_sq in (0.1, 10.0):
    trace = results[(sigma_sq, "adaptive")]
    head = np.array2string(trace.alpha[:5], precision=4)
    print(f"sigma^2={sigma_sq:<5g} first weights {head}  final {trace.alpha[-1]:.5f}")
print()
print("Weights fall as the observed device-gradient norms shrink relative to")
print("the (fixed) coded-gradient noise floor: near the optimum the devices'")
print("reports are trusted almost exclusively.")
