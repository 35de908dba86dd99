"""The base of every error the package reports as `CODE: message`."""


class CaseflowError(Exception):
    """A bad model, window, stream or event, named by a stable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
