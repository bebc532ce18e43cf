"""The compiled match kernel: per-ruleset codegen over columnar memories.

The interpreted Rete walks one Python method call per node activation --
the per-candidate constant factor that dominates serial throughput once
dispatch is cheap (ROADMAP item 1; CORGI's observation in PAPERS.md).
This package removes that factor by *compiling* each ruleset, once, to
specialized Python:

* every production's alpha tests fuse into a single predicate closure,
  and a per-class hash table on one constant-test attribute routes each
  WME to the few stores whose predicates it could pass;
* beta joins become hash-indexed probes over columnar alpha memories
  whose key components are small ints from the process-wide
  :mod:`repro.ops5.symbols` intern table;
* the generated module is cached by a structural LHS fingerprint, so
  re-loading the same ruleset (or the same ruleset under new production
  names) reuses the same code object and never re-interns a symbol.

The node-walking Rete stays in the tree as the differential oracle:
``CompiledMatcher(oracle=True)`` shadows every change through a
:class:`~repro.rete.ReteNetwork` and raises on the first divergence,
and the fuzz fleet (``repro fuzz``) cross-checks the generated code
against all interpreted matchers on every generated program.

See ``docs/compiled-kernel.md`` for the compilation model.
"""

from .cache import CompiledRuleset, cache_stats, compiled_ruleset, ruleset_fingerprint
from .codegen import generate_source
from .layout import AlphaStore, NUMBERS, encode_value
from .matcher import CompiledMatcher
from .runtime import KernelRuntime
from .shared import (
    SharedKernel,
    clear_shared_kernels,
    shared_kernel,
    shared_kernel_stats,
)
from .verify import check_kernel

__all__ = [
    "AlphaStore",
    "CompiledMatcher",
    "CompiledRuleset",
    "KernelRuntime",
    "NUMBERS",
    "SharedKernel",
    "cache_stats",
    "check_kernel",
    "clear_shared_kernels",
    "compiled_ruleset",
    "encode_value",
    "generate_source",
    "ruleset_fingerprint",
    "shared_kernel",
    "shared_kernel_stats",
]
