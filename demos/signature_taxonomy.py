"""Tour of the block-signature algebra.

A signature is a label string plus a nesting degree. Each distinct label is
one block of transformer layers; repeats re-execute the same block with the
same weights. Degree d substitutes the whole pattern into each label d-1
times, which is how a short string can describe a deep weight-shared stack.
"""

import rinslab as rl


def show(sig_text, degree=1):
    sig = rl.parse(sig_text, degree=degree)
    plan = rl.expand(sig)
    seq = " ".join(rl.leaf_label(i) for i in plan.leaf_sequence)
    mask = "".join("s" if m else "." for m in plan.skip_eligible)
    print(f"  {rl.to_tagged(sig):>10}  calls={len(plan.leaf_sequence):>2} "
          f"distinct={plan.unique_leaf_count:>2}  exec: {seq:<28} skip: {mask}")


print("Flat (degree-1) signatures. Repeated labels share weights:")
for s in ("AB", "AAB", "AAAB", "ABAB", "ABBC"):
    show(s)

print()
print("Caret shorthand is accepted and canonicalized:")
sig = rl.parse("A^3B")
print(f"  A^3B parses to {sig.symbols!r}, the canonical flat form")

print()
print("Nesting. Degree 2 rewrites every label into a fresh copy of the")
print("pattern, with repeated labels reusing the copy already made:")
for d in (1, 2, 3):
    show("ABB", degree=d)
print("  (ABB at degree 2 is the 9-call stack A B B C D D C D D)")

print()
print("The A^r B family is the recursive-inference shape: r passes through")
print("block A, then a dedicated output block B. Only interior A-calls are")
print("skip-eligible ('s' above), so sampled depth never drops the first or")
print("last call:")
for s in ("AB", "AAB", "AAAAB"):
    sig = rl.parse(s)
    print(f"  {s:>6}: rins_rounds={rl.rins_rounds(sig)}")

print()
print("Sweep enumeration used by the comparison harness (4 power-of-A shapes")
print("plus 9 patterns at degrees 1-3). Feasibility depends on how many")
print("distinct blocks fit in the layer budget:")
for layers in (4, 8):
    cands = rl.enumerate_sweep(layers)
    feasible = [rl.to_tagged(s) for s, ok in cands if ok]
    print(f"  {layers} layers: {len(cands)} candidates, "
          f"{len(feasible)} feasible: {', '.join(feasible)}")
