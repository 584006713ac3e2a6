// corm-raw-new fixture: every allocating new/delete form must fire,
// including the shapes the old grep rule missed (multi-line operands,
// nothrow-new). Never compiled — linted by tests/lint_fixtures ctest.
#include <new>

struct Foo {
  int x = 0;
};

Foo* MakeOne() {
  return new Foo();  // EXPECT: corm-raw-new
}

Foo* MakeMany(unsigned n) {
  return new Foo[n];  // EXPECT: corm-raw-new
}

Foo* MakeNothrow() {
  // The nothrow form allocates even though it lexes like placement new.
  return new (std::nothrow) Foo();  // EXPECT: corm-raw-new
}

void DestroyOne(Foo* f) {
  delete f;  // EXPECT: corm-raw-new
}

void DestroyMany(Foo* f) {
  // Multi-line operand: invisible to a line-oriented grep.
  delete[]  // EXPECT: corm-raw-new
      f;
}

Foo* MakeBraced() {
  return new Foo{};  // EXPECT: corm-raw-new
}

Foo* MakeQualified() {
  return new ::Foo();  // EXPECT: corm-raw-new
}

void DestroyThroughHandle(Foo** handle) {
  delete *handle;  // EXPECT: corm-raw-new
}
