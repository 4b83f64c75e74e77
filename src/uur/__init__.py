"""Variance bounds for unitary operators: split-subset, fine-grained, and
cross-term lower bounds on products of unitary variances, with the supporting
moment machinery, built-in worked examples, and randomized self-checks.
"""

__version__ = "0.1.0"
