"""
Ergodic structure of the chain induced by a finite-memory strategy
==================================================================

Pairing the hidden state with the automaton's memory cell gives a finite
Markov chain.  Its decomposition into transient states and closed recurrent
classes explains where the long-run average settles and how fast.
"""

import numpy as np

import pomdp_evals as pe
from pomdp_evals.chain import (MarkovChain, ergodic_decomposition,
                               mixing_threshold, product_chain)

# ---------------------------------------------------------------------------
# The redraw chain mixes in one step: a single class, stationary law (.5,.5).
# ---------------------------------------------------------------------------

sc = pe.builtin_scenario("uniform-redraw")
t = pe.always_strategy(2, 1, 0)
chain = product_chain(sc.pomdp, t, sc.initial_belief)
dec = ergodic_decomposition(chain)
print("uniform redraw chain under a constant strategy")
print(f"  classes = {dec.classes}, stationary = {np.round(dec.stationary[0], 3)}")
print(f"  class payoff = {dec.class_values[0]:.3f}, "
      f"mixing threshold = {mixing_threshold(chain, dec)}")

# ---------------------------------------------------------------------------
# The blind switching chain under "always keep" freezes instantly: two
# singleton classes, entered with the initial probabilities.
# ---------------------------------------------------------------------------

sc = pe.builtin_scenario("blind-switching")
chain = product_chain(sc.pomdp, pe.always_strategy(2, 1, 0), sc.initial_belief)
dec = ergodic_decomposition(chain)
print("\nblind switching chain under 'always keep'")
for cls, gamma, mass in zip(dec.classes, dec.class_values, dec.absorption):
    labels = [chain.labels[j] for j in cls]
    print(f"  class {labels}: payoff {gamma:.1f}, entered with prob {mass:.2f}")

# ---------------------------------------------------------------------------
# A hand-built chain with a transient launch state: absorption probabilities
# weight the class payoffs into the long-run value.
# ---------------------------------------------------------------------------

T = np.array([[0.0, 0.3, 0.7],
              [0.0, 1.0, 0.0],
              [0.0, 0.0, 1.0]])
chain = MarkovChain(("launch", "good", "bad"), T,
                    np.array([0.0, 1.0, 0.25]), np.array([1.0, 0.0, 0.0]))
dec = ergodic_decomposition(chain)
value = sum(a * g for a, g in zip(dec.absorption, dec.class_values))
print("\nlaunch chain")
print(f"  transient = {[chain.labels[j] for j in dec.transient]}")
print(f"  absorption = {dec.absorption}, long-run value = {value:.3f}")

# ---------------------------------------------------------------------------
# Mixing thresholds grow as a chain slows down.
# ---------------------------------------------------------------------------

print("\nmixing thresholds of lazy two-state chains")
for eps in (0.5, 0.1, 0.02):
    T = np.array([[1 - eps, eps], [eps, 1 - eps]])
    chain = MarkovChain(("u", "v"), T, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    l = mixing_threshold(chain)
    law = chain.initial              # the chain's law after l steps
    for _ in range(l):
        law = law @ chain.transition
    drift = abs(law @ chain.payoff - 0.5)
    print(f"  flip prob {eps:4.2f}: threshold = {l:3d} "
          f"(payoff gap {drift:.4f} at that step)")
