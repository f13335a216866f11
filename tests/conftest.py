from relclock.kernels import ClockKernel


class ClosedFormKernel(ClockKernel):
    """A clock kernel w(s) in closed form, for the positive-type certificates.

    It hashes by identity, as the certificate cache in ``rates`` needs.
    """

    def __init__(self, w, width):
        self._w, self._width = w, width

    def evaluate(self, s):
        return self._w(s)

    @property
    def width(self):
        return self._width
