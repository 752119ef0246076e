from .cli import cli_entry

cli_entry()
