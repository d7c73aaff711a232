"""Cycles of gaps in Eratosthenes sieve.

Build the cycle of gaps among the generators of Z mod p#, census gaps and
constellations with their driving terms exactly, run the exact population
model across sieve stages through its Pascal eigenstructure, evaluate
closed-form asymptotic ratios, and model gap survival under continued
sieving.
"""

from .census import Constellation, PopulationVector, census_all, census_for
from .cycle import (
    CacheFormatError,
    GapCycle,
    build_primorial_cycle,
    build_primorial_cycle_streaming,
    cycle_for_factors,
    extend_cycle,
    oracle_cycle,
    read_cache,
    render_compact,
    verify_cycle,
    write_cache,
)
from .dynsys import (
    asymptotic_ratio,
    crossover,
    eigenvalue_products,
    iterate,
    polynomial_approx,
    step,
)
from .polignac import crt_total, singular_ratio
from .primal import (
    CapacityError,
    phi_i,
    primes_in,
    radical_of_even,
)
from .survival import (
    AttritionTrace,
    attrition,
    error_report,
    fold_confirmed_front,
)

__version__ = "0.1.0"
