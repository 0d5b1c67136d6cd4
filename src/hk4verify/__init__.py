"""Exact-arithmetic verification that compact hyperkahler 4-folds admit no
nontrivial numerically trivial automorphism.

The package replays every numerical step of the argument with exact rational
arithmetic: Betti/Chern bookkeeping, the Riemann-Roch rational-square filter,
Betti transport through quotient resolutions, Lefschetz fixed-locus
accounting, and the final two-branch contradiction, emitted as
machine-readable certificates.  All values are immutable and all operations
pure, so everything here is safe to share across threads.
"""

from ._version import __version__
