"""The independent checker: the grouping that proves a sampled pool."""

import ast
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from dnacode import in_ball, sample_ball
from dnacode import checker
from dnacode.checker import grouping_fits

from oracles import (
    flip_positions,
    mk_params,
    oracle_assignment_feasible,
    random_message,
    reference_pool,
)
from test_channel import _sampler_cases


def test_checker_accepts_every_sample_and_agrees_with_membership():
    rng = random.Random(11)
    cases = 0
    for p, z, seed in _sampler_cases():
        sample = sample_ball(z, p, seed)
        shuffled = [rng.sample(group, len(group)) for group in sample.groups]
        # the order of the reads within a group does not matter
        assert grouping_fits(sample.groups, z, p)
        assert grouping_fits(shuffled, z, p)
        assert in_ball(sample.pool, z, p)
        cases += 1
    assert cases > 300


def at(s, p, wi, wd):
    """Strand s's bits with wi index flips and wd data flips."""
    flips = (*range(wi), *range(p.index_len, p.index_len + wd))
    return s.bits ^ sum(1 << (p.length - 1 - pos) for pos in flips)


def edge_grouping(z, p):
    """K reads per strand: floor(tau*K) of them at (e_i, e_d), the rest
    exact copies, altered ones first."""
    return [
        [at(s, p, p.e_i, p.e_d)] * p.tau_budget + [at(s, p, 0, 0)] * (p.k - p.tau_budget)
        for s in z.strands
    ]


def mutations(z, p):
    """(name, groups) for each single way out of the ball, on the first
    group of ``edge_grouping``: its first read is altered, its last an
    exact copy."""
    s = z.strands[0]
    # the one altered read within the radii that flips the fewest bits
    near = (0, 1) if p.e_d else (1, 0)
    groups = edge_grouping(z, p)
    own = groups[0]
    changes = {
        "index flips over e_i": [at(s, p, p.e_i + 1, 0), *own[1:]],
        "data flips over e_d": [at(s, p, 0, p.e_d + 1), *own[1:]],
        "K - 1 reads": own[:-1],
        "K + 1 reads": [*own, own[-1]],
        "altered reads over the budget": [*own[:-1], at(s, p, *near)],
        "a read outside the L bits": [s.bits ^ (1 << p.length), *own[1:]],
        "an (L+1)-bit read at the radii": [own[0] | 1 << p.length, *own[1:]],
    }
    for name, group in changes.items():
        yield name, [group, *groups[1:]]
    # a group too few, and one more for a strand outside z
    yield "a group too few", groups[:-1]
    yield "a group too many", [*groups, groups[-1]]


# floor(tau*K) >= 1 in both, so the first strand has an altered read to
# replace; the second has e_i = 0 and a data radius of 2
MUTATION_SHAPES = [(3, 6, 3, 4, "1/2", 1, 1), (2, 5, 2, 3, "1/3", 0, 2)]


@pytest.mark.parametrize("shape", MUTATION_SHAPES)
def test_checker_rejects_each_single_mutation(shape):
    p = mk_params(*shape)
    assert p.tau_budget >= 1
    z = random_message(random.Random(3), p)
    assert grouping_fits(edge_grouping(z, p), z, p)
    names = []
    for name, groups in mutations(z, p):
        assert not grouping_fits(groups, z, p), name
        names.append(name)
    assert len(names) == 9


def tiny_params():
    """Every shape with M <= 2 and L <= 4, K <= 3, a few taus and every
    pair of radii."""
    for m, length, k, tau in product((1, 2), (2, 3, 4), (1, 2, 3), ("1/3", "1/2", "1")):
        for index_len in range(1, length):
            if m > 1 << index_len:
                continue
            for e_i, e_d in product(range(index_len + 1), range(length - index_len + 1)):
                yield mk_params(m, length, index_len, k, tau, e_i, e_d)


def random_groups(rng, z, p):
    """Groups near a grouping of z: mostly K reads per strand, at most
    one flip over the radii in each field, now and then one read too many
    or too few, a read anywhere in the L bits, and one group too few or
    too many."""
    groups = []
    for s in z.strands:
        group = []
        for _ in range(p.k + rng.choice((0, 0, 0, 0, -1, 1))):
            read = s.bits
            if rng.random() < 0.05:
                read = rng.randrange(1 << p.length)
            elif rng.random() < 0.5:
                wi = rng.randint(0, min(p.index_len, p.e_i + 1))
                wd = rng.randint(0, min(p.data_len, p.e_d + 1))
                flips = rng.sample(range(p.index_len), wi)
                flips += rng.sample(range(p.index_len, p.length), wd)
                read = flip_positions(read, p.length, flips)
            group.append(read)
        groups.append(group)
    count = rng.random()
    if count < 0.025:
        groups.pop()
    elif count < 0.05:
        groups.append(groups[-1])
    return groups


def test_checker_is_sound_against_the_partition_search():
    rng = random.Random(29)
    shapes = accepted = rejected = 0
    for p in tiny_params():
        shapes += 1
        for _ in range(4):
            z = random_message(rng, p)
            groups = random_groups(rng, z, p)
            if not grouping_fits(groups, z, p):
                rejected += 1
                continue
            accepted += 1
            pool = reference_pool([r for group in groups for r in group], p.length)
            assert oracle_assignment_feasible(pool, z, p), (p, z, groups)
    assert shapes > 500
    assert accepted > 500 and rejected > 500


def _imports(path):
    """Every module a source file imports: absolute names as written, and
    relative ones as modules of the package."""
    imported = []
    for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # from .x import ...: the package module x; from . import y: module y
                base = "dnacode" + (f".{node.module}" if node.module else "")
                imported += [base] if node.module else [f"{base}.{a.name}" for a in node.names]
            else:
                imported.append(node.module)
    return imported


RUNTIME_MODULES = sorted(Path(checker.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", RUNTIME_MODULES, ids=lambda path: path.name)
def test_runtime_imports_only_the_package_and_the_standard_library(path):
    imported = _imports(path)
    assert imported
    for name in imported:
        top = name.split(".")[0]
        assert top == "dnacode" or top in sys.stdlib_module_names, name


def test_checker_imports_only_the_model_and_the_standard_library():
    # the checker must not call the code that found the answer it checks;
    # that its other imports are the standard library's is checked above
    package = {name for name in _imports(checker.__file__) if name.split(".")[0] == "dnacode"}
    assert package == {"dnacode.model"}
