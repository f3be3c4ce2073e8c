"""Exact enumeration, structure theory, and asymptotics of split graphs.

A split graph partitions into a clique and a stable set; a bicolored graph
carries an ordered green/red coloring with every edge bichromatic.  This
package provides:

* the structural classification of split graphs (balanced / ambiguous /
  k-canonical / s-canonical) via their swing vertices;
* invertible, relabeling-equivariant bijections between the classes;
* exhaustive enumeration oracles, labeled and unlabeled, for small sizes;
* exact generating-function chains and closed-form counters, cross-checked
  against each other and against the oracles;
* asymptotic ratio reports with exact inequality checks.

Everything is computed in exact integer (or rational) arithmetic, on the
standard library alone; the asymptotic report prints its irrational ratios
from integer brackets.  The coin flips of the seeded random suite are the
only floats.

Each public name is imported from the module that owns it (README's library
map).  Importing the package loads every module but ``cli``.
"""

from . import asymptotics, bijections, checks, counting, enumeration, graphs, series, structure

# the one re-export: perfbench/test_perfbench.py test_install_patches_every_binding
# asserts ``splitspecies.split_labeled_bp is counting.split_labeled_bp``
from .counting import split_labeled_bp
