"""Generalized k-Ramanujan primes with certified search cutoffs.

R_n^(k) is the least integer m such that pi(x) - pi(x/k) >= n for every
real x >= m, for rational k > 1.  The package computes these values
with an analytic proof that the scan range suffices (bounds), evaluates
the explicit threshold constants behind those proofs (named_threshold,
n_threshold), and re-runs the finite verification campaigns for the
surrounding theory (verify).
"""

from .bounds import (BoundProfile, P1, P2, P3, P4, PROFILES, certify_tail,
                     get_profile, log_gap_holds, n_threshold,
                     named_threshold, pi_lower, pi_upper, threshold_names,
                     upsilon)
from .errors import RangeQueryError, ResourceBudgetError, ThresholdDomainError
from .primes import PrimeTable, build_table
from .ramanujan import (MpsVerdict, NEstimate, RamanujanTable, TableCache,
                        empirical_N, empirical_N0, mps_holds, pi_k,
                        ramanujan_prefix, rho_k)
from .rational import parse_k, parse_ratio
from .verify import (CampaignReport, campaign_ids, reports_to_csv,
                     reports_to_json, run_all, run_campaign)

__version__ = "0.1.0"

__all__ = [
    "BoundProfile", "P1", "P2", "P3", "P4", "PROFILES", "certify_tail",
    "get_profile", "log_gap_holds", "n_threshold", "named_threshold",
    "pi_lower", "pi_upper", "threshold_names", "upsilon",
    "RangeQueryError", "ResourceBudgetError", "ThresholdDomainError",
    "PrimeTable", "build_table",
    "MpsVerdict", "NEstimate", "RamanujanTable", "TableCache",
    "empirical_N", "empirical_N0", "mps_holds", "pi_k",
    "ramanujan_prefix", "rho_k",
    "parse_k", "parse_ratio",
    "CampaignReport", "campaign_ids", "reports_to_csv", "reports_to_json",
    "run_all", "run_campaign",
    "__version__",
]
