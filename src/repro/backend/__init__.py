"""The final lowering step: IR to native machine instructions.

Plays the role of the LLVM backend in the paper's stack: instruction
selection, graph-colouring register allocation (with an optionally
*reserved* tag register, the mechanism behind Register Tagging's 2.8 %
reservation cost), IR-level optimizations (constant folding, dead-code
elimination, common-subexpression elimination), and DWARF-like debug information mapping
every native instruction back to the IR instruction it was selected from.
"""

from repro.backend.compiler import BackendOptions, CompiledFunction, compile_module
from repro.backend.opts import OptimizationResult, optimize_function

__all__ = [
    "BackendOptions",
    "CompiledFunction",
    "OptimizationResult",
    "compile_module",
    "optimize_function",
]
