"""
The reference temperature regulator
===================================

Walks the reference five-term controller through the full pipeline: a crisp
temperature is fuzzified against the input terms, every fired rule clips
its consequent, the clipped sets merge by max-union, and the center of
gravity of the merged set is the crisp command. Cold readings produce big
commands; hot readings, small ones.
"""

from fuzzreg import defuzz_cog, emit_sweep_data, reference_regulator

reg = reference_regulator()

print("rules:")
for rule in reg.rulebase.rules:
    lhs = reg.input_var.terms[rule.antecedent].name
    rhs = reg.output_var.terms[rule.consequent].name
    print(f"  IF Temperature is {lhs:3} THEN Command is {rhs}")

# one evaluation, with every intermediate stage kept on the trace
trace = reg.evaluate(0.7)
print(f"\ntemperature 0.7 (cold):")
activations = {n: round(float(g), 3) for n, g in zip(reg.input_var.term_names, trace.activations)}
print("  activations:", activations)
print("  fuzzy command mass:", round(float(trace.aggregated.grades.sum()), 3))
print("  crisp command:", round(trace.output, 6))

# the trace's aggregated set defuzzifies to exactly the reported output
assert defuzz_cog(trace.aggregated) == trace.output

# at a term's peak exactly one rule fires, so the command equals that
# consequent's centroid
for x in (0.0, 25.0, 50.0, 75.0, 100.0):
    print(f"temperature {x:5.1f} -> command {reg.evaluate(x).output:.4f}")

# the response curve is monotone: hotter never means a bigger command
pairs = reg.sweep(11)
print("\nresponse curve (11 points):")
print(emit_sweep_data(pairs))
