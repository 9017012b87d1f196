"""Programming models: a mini-DSL lowered per address space.

The paper compares programmability by counting the source lines each
address space needs to handle data communication (Table V, §V-C). We make
that mechanical: each kernel has an abstract
:class:`~repro.progmodel.spec.KernelProgramSpec` (its shared buffers and
GPU call sites), and :func:`~repro.progmodel.lowering.lower` turns the spec
into a concrete :class:`~repro.progmodel.program.Program` for each address
space following the paper's Figure 2/3 code patterns:

- **unified**: plain ``malloc``; no communication statements at all;
- **partially shared**: ``sharedmalloc`` replaces ``malloc`` (no extra
  line) plus a release/acquire ownership pair around every GPU call site;
- **ADSM**: an ``adsmAlloc`` and an ``accfree`` per shared buffer;
- **disjoint**: a device alloc, one ``Memcpy``, and a device free per
  shared buffer.

Counting the communication statements of the lowered programs reproduces
Table V exactly (see ``tests/progmodel/test_table5.py``); the
:mod:`~repro.progmodel.interpreter` executes lowered programs against the
real :mod:`repro.addrspace` models, so ownership violations and illegal
accesses in the generated code are caught by the substrate.
"""

from repro.progmodel.ast import (
    AccessDecl,
    AccessMode,
    AcquireOwnership,
    Alloc,
    Comment,
    Free,
    KernelLaunch,
    Memcpy,
    Push,
    ReleaseOwnership,
    Stmt,
    Sync,
)
from repro.progmodel.program import Program
from repro.progmodel.spec import (
    BufferDirection,
    BufferSpec,
    KernelProgramSpec,
    access_modes,
    program_spec,
    all_program_specs,
)
from repro.progmodel.lowering import lower
from repro.progmodel.locality_lowering import count_pushes, lower_with_locality
from repro.progmodel.interpreter import ExecutionLog, Interpreter

__all__ = [
    "Stmt",
    "Alloc",
    "Free",
    "Memcpy",
    "AcquireOwnership",
    "ReleaseOwnership",
    "KernelLaunch",
    "Push",
    "Sync",
    "Comment",
    "AccessMode",
    "AccessDecl",
    "Program",
    "BufferDirection",
    "BufferSpec",
    "KernelProgramSpec",
    "access_modes",
    "program_spec",
    "all_program_specs",
    "lower",
    "lower_with_locality",
    "count_pushes",
    "Interpreter",
    "ExecutionLog",
]
