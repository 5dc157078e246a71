"""Numerical thresholds shared across the library.

The values are calibrated for double precision on dense 2x2 / 4x4 matrices.
"""

# relative slack: a weak-commutation residual or the gap between a diagonal entry and its
# maximum, which scale like |Y|^2, counts as zero at or below this times the largest maximum
ATTAINABILITY = 1e-10
# |r| may exceed 1 by at most this before a state is rejected
BLOCH_NORM_SLACK = 1e-12
# a Bloch vector counts as pure within this of norm 1;
# a density matrix may miss unit trace, and Hermiticity, by as much
PURITY = 1e-9
