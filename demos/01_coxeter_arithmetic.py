#!/usr/bin/env python3
# Group arithmetic: systems, roots, lengths, descents, and node-subset budgets.

from coxsph import coxeter_system, evaluate, parse_word

# Systems are built from type strings and cached. Types A-G carry their
# positive roots in the simple-root basis.
b3 = coxeter_system("B3")
print("B3 positive roots:", len(b3.positive_roots))
print("B3 group order:   ", b3.order())
print("B3 longest length:", b3.longest_element().length)

# Elements are canonical; words multiply out through `evaluate`.
w = evaluate(b3, parse_word("s2 s3 s1 s2 s3"))
print("\nword s2 s3 s1 s2 s3:")
print("  length:        ", w.length)
print("  left descents: ", sorted(b3.left_descents(w)))
print("  right descents:", sorted(b3.right_descents(w)))
print("  inverse word:  ", w.inverse())

# Dihedral groups store w = (s1 s2)^r s1^f as the pair (r mod m, f) instead of roots.
d7 = coxeter_system("I2(7)")
print("\nI2(7) order:", d7.order(), " longest element:", d7.longest_element())

# A node subset splits into connected components of the diagram, each with a
# letter budget: longest-element length plus vertex count.
e8 = coxeter_system("E8")
decomp = e8.decompose_subset({2, 3, 4, 5, 7, 8})
for comp, budget in zip(decomp.components, decomp.budgets):
    print(f"E8 component {comp}: budget {budget}")

# Whole groups enumerate in length order (small ranks only).
print("\nfirst A2 elements:", coxeter_system("A2").elements()[:4])
