"""The full third-order chain d^2 Gamma -> d Riem, kept as a test reference.

``wfk.geometry`` contracts g^-1 or V into the metric jets before anything
dim^5 is formed.  These helpers build the whole dim^5 arrays instead and
contract last, so the two routes share only the jets, g^-1, Gamma, d Gamma
and Riem of the point.  The metric's third-order jets come over its support
only; ``dense_d3g`` scatters them to the whole dim^5 array here.
"""
import numpy as np

from wfk.geometry import _lie_connection_components


def dense_d3g(geo) -> np.ndarray:
    """d3g[i, j, k, l, m] = d_k d_l d_m g_ij over every coordinate."""
    n = geo.point.shape[-1]
    out = np.zeros(geo.d3g.shape[:-3] + (n, n, n))
    out[(..., *np.ix_(*[geo.support] * 3))] = geo.d3g
    return out


def d2gamma(geo) -> np.ndarray:
    """d2gamma[k, i, j, m, n] = d_m d_n Gamma^k_ij.

    With Gamma_aij = g_ak Gamma^k_ij, differentiating twice gives
    d_mn Gamma^k_ij = g^ka (d_mn Gamma_aij - d_mn g_ab Gamma^b_ij
    - d_m g_ab d_n Gamma^b_ij - d_n g_ab d_m Gamma^b_ij).
    """
    d3g = dense_d3g(geo)
    d2core = (
        np.einsum("jlimn->lijmn", d3g)
        + np.einsum("iljmn->lijmn", d3g)
        - np.einsum("ijlmn->lijmn", d3g)
    )
    # [a, i, j, m, n] = d_m g_ab d_n Gamma^b_ij
    mixed = np.einsum("abm,bijn->aijmn", geo.dg, geo.dgamma, optimize=True)
    inner = (
        0.5 * d2core
        - np.einsum("abmn,bij->aijmn", geo.d2g, geo.gamma, optimize=True)
        - mixed
        - mixed.transpose(0, 1, 2, 4, 3)
    )
    return np.tensordot(geo.ginv, inner, axes=1)


def driem(geo) -> np.ndarray:
    """driem[l, i, j, k, n] = d_n riem[l, i, j, k]."""
    gam, dgam = geo.gamma, geo.dgamma
    # d_n of riem's term[l, i, j, k] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk
    dterm = (
        np.einsum("ljkin->lijkn", d2gamma(geo))
        + np.einsum("limn,mjk->lijkn", dgam, gam, optimize=True)
        + np.einsum("lim,mjkn->lijkn", gam, dgam, optimize=True)
    )
    return dterm - np.einsum("lijkn->ljikn", dterm)


def dric(geo) -> np.ndarray:
    """dric[j, k, n] = d_n Ric_jk, the trace of the whole d Riem."""
    return np.einsum("iijkn->jkn", driem(geo))


def lie_curvature(g, V, p) -> np.ndarray:
    """(L_V R)^k_ijm = nabla_i T^k_jm - nabla_j T^k_im for T = L_V nabla.

    d_n T comes from the product rule with the whole d Riem, less
    d_n d_i A^k_j (A = nabla V), which is symmetric in (i, n) and so drops
    out of the antisymmetrization.
    """
    geo = g.at(np.asarray(p, dtype=float))
    v, dv, d2v = V.jets(geo.point)
    gam, dgam = geo.gamma, geo.dgamma
    t = _lie_connection_components(geo, (v, dv, d2v))
    a = dv + np.einsum("kjm,m->kj", gam, v)
    da = (
        d2v
        + np.einsum("kjmi,m->kji", dgam, v)
        + np.einsum("kjm,mi->kji", gam, dv)
    )
    dt = (
        np.einsum("kimn,mj->kijn", dgam, a)
        + np.einsum("kim,mjn->kijn", gam, da)
        - np.einsum("mijn,km->kijn", dgam, a)
        - np.einsum("mij,kmn->kijn", gam, da)
        + np.einsum("kmijn,m->kijn", driem(geo), v)
        + np.einsum("kmij,mn->kijn", geo.riem, dv)
    )
    nabla_t = (
        np.einsum("kjmi->kijm", dt)
        + np.einsum("kia,ajm->kijm", gam, t)
        - np.einsum("aij,kam->kijm", gam, t)
        - np.einsum("aim,kja->kijm", gam, t)
    )
    return nabla_t - np.einsum("kijm->kjim", nabla_t)
