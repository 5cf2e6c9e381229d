"""Sweep the adaptive parameter derivation and summarize how often the
achieved output size deviates from the requested one."""

from collections import Counter

from nirmalpool import harness

sweep = harness.poolcheck(64)
deviating = {key: p for key, p in sweep.items() if p.out_h != key[1]}
print(f"{len(sweep)} (input, target) pairs; {len(deviating)} deviate from the request")

by_delta = Counter(p.out_h - target for (_, target), p in deviating.items())
print("deviation histogram (achieved - requested):")
for delta in sorted(by_delta):
    print(f"  {delta:+3d}: {by_delta[delta]} cases")

print("\nexamples around the 28-pixel case:")
for target in (9, 10, 11, 13, 14, 15):
    p = sweep[(28, target)]
    flag = "DEVIATES" if p.out_h != target else "exact"
    print(f"  input 28 target {target:>2} -> window {p.window_h} "
          f"stride {p.stride_h} out {p.out_h}  {flag}")
