"""Numerical thresholds shared across the library.

The values are calibrated for double precision on dense 2x2 / 4x4 matrices.
"""

# below this, a coefficient vector is treated as zero and the analytic
# limit formulas are used instead of the sin-normalized unit vectors
DEGENERATE = 1e-12
# weak-commutation residual magnitudes considered zero, and the slack on
# "maximum attained" comparisons, for the attainability verdict
ATTAINABILITY = 1e-10
# |r| may exceed 1 by at most this before a state is rejected
BLOCH_NORM_SLACK = 1e-12
# a Bloch vector counts as pure when ||r| - 1| is below this
PURITY = 1e-9
