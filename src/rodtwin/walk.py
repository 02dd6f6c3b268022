"""The walk of an nx x (nt + 1) matrix in blocks of BLOCK_ROWS rows.

Every loop that reads the data or a twin in row blocks is here.  A twin
is a function twin(start, stop, out) that writes its rows start:stop into
out, such as modal_rows of a real product L R, so the scorers, the sweep
and reconstruct form the same rows, bit for bit.
"""

import numpy as np

NON_FINITE = "snapshot values contain non-finite entries"

# Rows per block wherever a matrix is scanned or a modal sum evaluated
# block by block: a block's temporaries stay in cache.  A constant, so
# the sums do not depend on the machine.
BLOCK_ROWS = 128

# the correlation variants of metrics, which pick the factors of data_pass
VARIANTS = ("paper", "cosine")


def row_blocks(nx):
    """(start, stop) of each BLOCK_ROWS-row block of nx rows, in order."""
    for start in range(0, nx, BLOCK_ROWS):
        yield start, min(start + BLOCK_ROWS, nx)


def add_column_sums(total, x, y):
    """total += the column sums of x * y over one block.

    One fused reduction, np.einsum("ij,ij->j"), with no temporary of
    the product.  The block's sums start at zero and are added to the
    totals in block order, an order fixed by BLOCK_ROWS alone.  numpy
    sums each column of a C-ordered block of two or more columns row by
    row, and an F-ordered block or a single column with unrolled
    partial sums, which can differ in the last bits.
    """
    total += np.einsum("ij,ij->j", x, y)


def quiet():
    """Silence numpy's overflow and invalid-value warnings: the power
    sums of data near the top of the float range overflow, and the
    non-finite result is reported as a named error instead."""
    return np.errstate(over="ignore", invalid="ignore")


def modal_rows(left, right):
    """The twin of the real modal sum left @ right."""
    return lambda start, stop, out: np.matmul(left[start:stop], right, out=out)


def data_pass(values, twins=(), variant="paper", width=0, bases=()):
    """Per-column sums of the data values against each of a list of
    twins, the data's column energies and its products with bases, from
    one walk of row_blocks: the pass kernel of every scorer.

    With a the data's block and b a twin's, the factors are d = a - b,
    the data's x and the twin's y: a^2 and b^2 for the variant "paper",
    a and b for "cosine" (another variant raises ValueError before the
    walk).  Each sum is add_column_sums of two factors over the columns
    from t_1 on: per twin d d, x y and y y, and x x once.  x is formed
    once per block and d and y once per twin, over whole block rows, y
    squaring b in place.  With width, the energies are the sums of a^2
    over the first width columns, and each basis (nx, c) gives the
    (c, width) product basis^T values[:, :width].  Returns (sums, a
    (twins, 3, nt) array; the data's sums of x x; energies; products).
    """
    if variant not in VARIANTS:
        raise ValueError("unknown correlation variant %r" % variant)
    nx, ncols = values.shape
    sums = np.zeros((len(twins), 3, ncols - 1))
    data_sums = np.zeros(ncols - 1)
    energies = np.zeros(width)
    products = [np.zeros((basis.shape[1], width)) for basis in bases]
    # the block buffers of d, a^2 and the twin, reused from block to block:
    # fresh arrays per block made the pass over the 101x301 benchmark 1.6
    # times slower, and a factor formed over whole rows is one flat loop
    buffers = np.empty((3, min(BLOCK_ROWS, nx) if twins else 0, ncols))
    with quiet():
        for start, stop in row_blocks(nx):
            block = values[start:stop]
            if twins:
                diff, data_sq, y = buffers[:, : stop - start]
                x = np.square(block, out=data_sq) if variant == "paper" else block
                add_column_sums(data_sums, x[:, 1:], x[:, 1:])
            for twin, (dd, xy, yy) in zip(twins, sums):
                twin(start, stop, y)
                np.subtract(block, y, out=diff)
                if variant == "paper":
                    np.square(y, out=y)
                add_column_sums(dd, diff[:, 1:], diff[:, 1:])
                add_column_sums(xy, x[:, 1:], y[:, 1:])
                add_column_sums(yy, y[:, 1:], y[:, 1:])
            if width:
                window = block[:, :width]
                add_column_sums(energies, window, window)
                for product, basis in zip(products, bases):
                    product += basis[start:stop].T @ window
    return sums, data_sums, energies, products


def first_non_finite_row(values, twin=None):
    """The index of the first row of values holding an entry that is
    not finite, or None; with a twin, of that twin on values' shape,
    formed a block at a time.  No mask of the whole matrix is held."""
    out = None if twin is None else np.empty((min(BLOCK_ROWS, len(values)), values.shape[1]))
    with quiet():
        for start, stop in row_blocks(len(values)):
            rows = values[start:stop]
            if twin is not None:
                rows = out[: stop - start]
                twin(start, stop, rows)
            if not np.isfinite(rows).all():
                return start + int(np.argmin(np.isfinite(rows).all(axis=1)))
    return None


def form(twin, shape):
    """The twin's rows on shape as one array, formed one block at a time
    as data_pass forms them, so they have the bits that it sums."""
    values = np.empty(shape)
    with quiet():
        for start, stop in row_blocks(shape[0]):
            twin(start, stop, values[start:stop])
    return values
