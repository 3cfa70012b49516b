from math import factorial

import numpy as np
import pytest

from elastprec.quadrature import RULE_DEGREE5, RULE_DEGREE6


def reference_monomial_integral(a, b):
    # exact integral of x^a y^b over the unit reference triangle
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def rule_error(rule, a, b):
    x, y = rule.points[:, 0], rule.points[:, 1]
    approx = np.sum(rule.weights * x**a * y**b)
    return abs(approx - reference_monomial_integral(a, b))


@pytest.mark.parametrize("rule", [RULE_DEGREE5, RULE_DEGREE6])
def test_rule_exact_to_stated_degree(rule):
    # the 12-point rule's published constants carry 15 digits, so allow
    # a couple of ulps on integrals of size up to 1/2
    for total in range(rule.degree + 1):
        for a in range(total + 1):
            assert rule_error(rule, a, total - a) <= 2e-15, (rule.degree, a, total - a)


@pytest.mark.parametrize("rule", [RULE_DEGREE5, RULE_DEGREE6])
def test_rule_not_exact_beyond_degree(rule):
    worst = max(rule_error(rule, a, rule.degree + 1 - a)
                for a in range(rule.degree + 2))
    assert worst > 1e-8


@pytest.mark.parametrize("rule", [RULE_DEGREE5, RULE_DEGREE6])
def test_rule_well_formed(rule):
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) <= 1e-15
    # all points strictly inside the reference triangle
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all(x > 0) and np.all(y > 0) and np.all(x + y < 1)
