# cmake -DIN=<header> -DOUT=<file> -P embed.cmake
# Writes the text of IN to OUT as a C++ raw string literal, for
# cemitter.cpp to #include as the initializer of a preamble part.
file(READ "${IN}" text)
file(WRITE "${OUT}" "R\"nol_embed(${text})nol_embed\"\n")
