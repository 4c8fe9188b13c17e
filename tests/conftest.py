"""Helpers shared by the test modules: a census of the arrays a tape keeps."""

import functools
import types

import numpy as np

from sydes.tensor import Tensor


def closure_values(fn) -> list:
    """The values a VJP closure holds: its cells, and through them the items
    of tuples and lists, the cells of the Python functions it holds and the
    function, arguments and keywords of the ``functools.partial`` objects it
    holds (a producer's rebuild is either)."""
    values, seen = [], set()

    def walk(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif isinstance(value, functools.partial):
            for item in (value.func, *value.args, *value.keywords.values()):
                walk(item)
        elif isinstance(value, types.FunctionType):
            if id(value) not in seen:
                seen.add(id(value))
                for cell in value.__closure__ or ():
                    walk(cell.cell_contents)
        else:
            values.append(value)

    for cell in fn.__closure__ or ():
        walk(cell.cell_contents)
    return values


def closure_arrays(fn) -> list:
    """The arrays among ``closure_values(fn)``; a tensor counts as its data."""
    values = closure_values(fn)
    return ([v for v in values if isinstance(v, np.ndarray)]
            + [v.data for v in values if isinstance(v, Tensor)])


def base_buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory (``a`` itself unless it is a view)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_census(root) -> list[tuple[Tensor, list]]:
    """Every op node reachable from ``root``, parents before consumers, with
    the arrays its VJP closure holds (``closure_arrays``).  Each base buffer
    is listed once, under the first node that holds it.  So an array that a
    consumer reaches through its producer's rebuild (a layer norm's ``xhat``)
    is counted under the producer, and a consumer lists only what it keeps
    of its own."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in reversed(node._parents) if id(p) not in seen)
    census, counted = [], set()
    for node in order:
        if node._vjp is None:
            continue
        arrays = []
        for a in closure_arrays(node._vjp):
            if id(base_buffer(a)) not in counted:
                counted.add(id(base_buffer(a)))
                arrays.append(a)
        census.append((node, arrays))
    return census
