import math

from fusionrep.cyclotomic import (cyclotomic_polynomial, degree_phi,
                                  format_value, power_table, value_json)

from oracles import value_conjugate, value_product


def add(*xs):
    return tuple(sum(cs) for cs in zip(*xs))


def scale(k, x):
    return tuple(k * c for c in x)


def rational(n, e):
    return (n,) + (0,) * (degree_phi(e) - 1)


def test_rational_embedding():
    assert format_value(1, (3,)) == "3"
    assert format_value(7, rational(-3, 7)) == "-3"
    assert format_value(5, rational(0, 5)) == "0"
    assert value_json(5, rational(0, 5)) == {"conductor": 5,
                                             "coeffs": ["0"] * 4}


def test_roots_of_unity_sum():
    zero = rational(0, 12)
    assert add(*(power_table(12)[k] for k in range(12))) == zero
    # primitive roots only: the Ramanujan sum c_12(1) = mu(12) = 0
    prim = [k for k in range(12) if math.gcd(k, 12) == 1]
    assert add(*(power_table(12)[k] for k in prim)) == zero


def test_quadratic_period():
    w = power_table(7)
    theta = add(w[1], w[2], w[4])
    bar = value_conjugate(7, theta)
    assert add(theta, bar) == rational(-1, 7)
    assert value_product(7, theta, bar) == rational(2, 7)
    # theta satisfies x^2 + x + 2 = 0
    assert add(value_product(7, theta, theta), theta,
               rational(2, 7)) == rational(0, 7)


def test_lift_and_mismatch():
    """A value moves from conductor e to a multiple e2 by z_e^k ->
    z_e2^(k e2 / e), the rows CharacterTable.pullback reads off
    power_table."""
    z3_in_6 = power_table(6)[2]
    assert value_product(6, z3_in_6, value_product(6, z3_in_6, z3_in_6)) \
        == rational(1, 6)
    assert add(rational(1, 6), z3_in_6, power_table(6)[4]) == rational(0, 6)
    # z_6 itself is not a cube root of unity
    z6 = power_table(6)[1]
    assert value_product(6, z6, value_product(6, z6, z6)) == rational(-1, 6)


def test_cyclotomic_polynomial():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_str_format():
    z = power_table(7)[1]
    got = format_value(7, add(scale(2, z), rational(-1, 7)))
    assert got == "-1 + 2*z7"
    three = power_table(7)[3]
    assert format_value(7, add(scale(2, three), z, rational(-1, 7))) \
        == "-1 + z7 + 2*z7^3"
    assert format_value(7, scale(-1, power_table(7)[6])) \
        == "1 + z7 + z7^2 + z7^3 + z7^4 + z7^5"
    assert format_value(7, add(scale(-3, z), three)) == "-3*z7 + z7^3"
    assert value_json(7, add(z, rational(-1, 7))) == {
        "conductor": 7, "coeffs": ["-1", "1", "0", "0", "0", "0"]}


def galois(e, x, j):
    """The automorphism zeta_e -> zeta_e^j on coordinates."""
    return add(*(scale(c, power_table(e)[k * j % e]) for k, c in enumerate(x)))


def test_galois_orbit():
    w = power_table(5)
    x = add(w[1], scale(2, w[2]), rational(3, 5))
    assert galois(5, galois(5, x, 2), 3) == galois(5, x, 6 % 5) == x
    assert galois(5, x, 4) == value_conjugate(5, x)
    assert add(*(galois(5, w[1], k) for k in range(1, 5))) == rational(-1, 5)
