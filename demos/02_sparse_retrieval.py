"""Retrieve supporting questions by sparse coding against a dictionary.

Builds a small corpus, plants one query as an exact copy of a corpus
question and another as a two-question mixture, then inspects the
solver's certificate and the ranked columns and scores.
"""

import numpy as np

from basiq.dictionary import build_dictionary
from basiq.generator import generate_basic_questions
from basiq.solver import LassoConfig, lambda_max, solve_lasso
from basiq.synthetic import make_corpus

corpus = make_corpus(48, 24, seed=3)
d = build_dictionary(corpus)
print(f"dictionary: {d.n_columns} questions, dim {d.dim}")

config = LassoConfig.relative(0.024)

# an exact self-match scores 1 - penalty, whatever the other columns are
self_query = d.matrix[:, 10].copy()
sol = solve_lasso(d, self_query, config)
print(f"\nself-match solve: {sol.sweeps_used} path steps, "
      f"gap {sol.duality_gap:.2e}, nonzeros {int(np.sum(sol.coefficients != 0))}")
print(f"coefficient on the planted column: {sol.coefficients[10]:.6f}")

# a mixture splits its weight across its components
mixture = 0.7 * d.matrix[:, 4] + 0.5 * d.matrix[:, 31]
columns, scores = generate_basic_questions(d, mixture, config=config)
for j, score in zip(columns, scores):
    print(f"  score {score:.6f}  column {j:2d}  {d.texts[j]}")

# cranking the penalty past the critical value empties the solution
lam_crit = lambda_max(d, mixture)
sol = solve_lasso(d, mixture, LassoConfig.absolute(1.01 * lam_crit))
print(f"\npenalty above the critical value {lam_crit:.4f}: "
      f"all coefficients zero = {bool(np.all(sol.coefficients == 0.0))}")
