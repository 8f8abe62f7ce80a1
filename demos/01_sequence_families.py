"""Tour of the sequence families: k-step Fibonacci, Horadam-type, periodic.

Run:  python demos/01_sequence_families.py
"""

from fiblike import (
    RecurrenceSpec,
    dump_spec,
    evaluate,
    evaluate_fast,
    evaluate_floor_indexed,
    horadam_spec,
    knacci_spec,
    load_spec,
    periodic_spec,
    terms,
)

print("=" * 72)
print("k-step Fibonacci rows (k = 2..5)")
print("=" * 72)
names = {2: "Fibonacci", 3: "Tribonacci", 4: "Tetranacci", 5: "Pentanacci"}
for k in range(2, 6):
    row = terms(knacci_spec(k), 13)
    print(f"  k={k} {names[k]:<11}: {', '.join(str(v) for v in row)}")
print()

print("Arbitrary initial terms keep the same recurrence: Lucas numbers")
lucas = RecurrenceSpec(k=2, coeffs=(1, 1), inits=(2, 1))
print(f"  {terms(lucas, 12)}")
print()

print("=" * 72)
print("Horadam-type sequences: order-k recurrences with weights q1..qk")
print("=" * 72)
pell = horadam_spec(2, (2, 1))
print(f"  Pell (q=2,1):        {terms(pell, 10)}")
u = horadam_spec(3, (3, 2, 1))
print(f"  order 3, q=(3,2,1):  {terms(u, 9)}")
print()

print("=" * 72)
print("Periodic leading coefficients")
print("=" * 72)
g = periodic_spec((2, 3), (0, 1))
print(f"  2-periodic a=2,b=3, basis inits:  {terms(g, 9)}")
print("  (a multiplies the previous term at even indices, b at odd ones)")
tern = periodic_spec((1, 2, 3), (0, 0, 1))
print(f"  3-periodic a,b,c=1,2,3, ternary:  {terms(tern, 9)}")
frac = periodic_spec(("0.2", "0.3"), (2, 3))
print(f"  fractional a=0.2, b=0.3, inits 2,3: {[str(v) for v in terms(frac, 6)]}")
print()

print("Real-indexed lookups floor the index and inherit everything else:")
print(f"  t(5.9) of the a=2,b=3 sequence = {evaluate_floor_indexed(g, 5.9)} (same as t(5))")
print(f"  t(2.5) of the fractional one   = {evaluate_floor_indexed(frac, 2.5)}")
print()

print("=" * 72)
print("Fast evaluation: x^n mod the characteristic polynomial, still exact")
print("=" * 72)
spec = knacci_spec(5)
n = 500
fast = evaluate_fast(spec, n)
naive = evaluate(spec, n)
print(f"  5-step term at n={n} has {len(str(fast))} digits; fast == naive: {fast == naive}")
print()

print("Specs round-trip through JSON ('p/q' strings keep everything exact):")
text = dump_spec(frac)
print(text)
print(f"  reload equals original: {load_spec(text) == frac}")
